// Minimal flag parsing shared by the command-line tools.
#pragma once

#include <charconv>
#include <initializer_list>
#include <map>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>
#include <utility>
#include <vector>

namespace mera::tools {

/// A bad invocation (unknown flag, missing required flag, malformed value).
/// Tools catch this separately from runtime errors so they can print the
/// usage text and exit with a distinct status.
class UsageError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      std::string a = argv[i];
      if (a.rfind("--", 0) == 0) {
        const auto eq = a.find('=');
        if (eq != std::string::npos) {
          flags_[a.substr(2, eq - 2)].push_back(a.substr(eq + 1));
        } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
          flags_[a.substr(2)].push_back(argv[++i]);
        } else {
          flags_[a.substr(2)].push_back("1");  // boolean flag
        }
      } else {
        positional_.push_back(std::move(a));
      }
    }
  }

  [[nodiscard]] bool has(const std::string& name) const {
    return flags_.count(name) != 0;
  }
  /// Last occurrence wins for single-valued flags.
  [[nodiscard]] std::string get(const std::string& name,
                                const std::string& def = "") const {
    const auto it = flags_.find(name);
    return it == flags_.end() ? def : it->second.back();
  }
  /// The whole value must parse as a T: trailing junk ("4x", "31.5"), an
  /// empty value and values outside T's range are usage errors. Int-typed
  /// flags ask for get_int<int>, so nothing is narrowed after the check.
  template <typename T = long>
  [[nodiscard]] T get_int(const std::string& name, T def) const {
    const auto it = flags_.find(name);
    if (it == flags_.end()) return def;
    const std::string& v = it->second.back();
    // from_chars takes no '+' sign; an explicit positive sign is fine.
    const char* first = v.data() + (v.size() > 1 && v[0] == '+' ? 1 : 0);
    const char* last = v.data() + v.size();
    T out{};
    const auto [ptr, ec] = std::from_chars(first, last, out);
    if (ec == std::errc::result_out_of_range)
      throw UsageError("flag --" + name + " value '" + v + "' is out of range");
    if (ec != std::errc{} || ptr != last)
      throw UsageError("flag --" + name + " expects an integer, got '" + v +
                       "'");
    return out;
  }
  [[nodiscard]] std::string require(const std::string& name) const {
    const auto it = flags_.find(name);
    if (it == flags_.end())
      throw UsageError("missing required flag --" + name);
    return it->second.back();
  }
  /// Every occurrence of a repeatable flag, in command-line order.
  [[nodiscard]] std::vector<std::string> get_all(const std::string& name) const {
    const auto it = flags_.find(name);
    return it == flags_.end() ? std::vector<std::string>{} : it->second;
  }
  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

  /// Reject flags outside `known` and `shared` (and stray positional
  /// arguments) instead of silently ignoring them.
  void check_known(std::initializer_list<std::string_view> known,
                   std::span<const std::string_view> shared = {}) const {
    for (const auto& [name, values] : flags_) {
      bool ok = false;
      for (const auto& k : known) ok = ok || k == name;
      for (const auto& k : shared) ok = ok || k == name;
      if (!ok) throw UsageError("unknown flag --" + name);
    }
    if (!positional_.empty())
      throw UsageError("unexpected argument '" + positional_.front() + "'");
  }

 private:
  std::map<std::string, std::vector<std::string>> flags_;
  std::vector<std::string> positional_;
};

/// The @PG CL field: the invocation verbatim, space-separated.
inline std::string command_line_of(int argc, char** argv) {
  std::string cl;
  for (int i = 0; i < argc; ++i) {
    if (i) cl += ' ';
    cl += argv[i];
  }
  return cl;
}

}  // namespace mera::tools
