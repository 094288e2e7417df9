// The command-line flag parser shared by meraligner, meralignerd,
// meraligner_client and seqdb_tool (tools/cli_util.hpp, tools/align_flags.hpp).
//
// Integer flags must parse whole: a value with trailing junk ("4x"), a
// fraction ("31.5"), an empty value or one outside the flag's type is a
// usage error, never its numeric prefix or a narrowed cast. Out-of-range
// values are checked here, at parse time only — running a binary with a
// huge --ranks would ask for that many rank threads if the check regressed.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "align_flags.hpp"
#include "cli_util.hpp"

namespace {

using mera::tools::Args;
using mera::tools::UsageError;

/// Args over `argv` (the program name is prepended).
Args make_args(std::vector<std::string> argv) {
  argv.insert(argv.begin(), "prog");
  std::vector<char*> ptrs;
  for (std::string& a : argv) ptrs.push_back(a.data());
  return Args(static_cast<int>(ptrs.size()), ptrs.data());
}

/// The UsageError message get_int<T>(name) throws ("" if it returns).
template <typename T>
std::string int_error(const std::string& value) {
  try {
    (void)make_args({"--n", value}).get_int<T>("n", 0);
  } catch (const UsageError& e) {
    return e.what();
  }
  return "";
}

TEST(CliArgs, GetIntParsesWholeValues) {
  EXPECT_EQ(make_args({"--k", "31"}).get_int<int>("k", 51), 31);
  EXPECT_EQ(make_args({"--k", "+31"}).get_int<int>("k", 51), 31);
  EXPECT_EQ(make_args({"--k", "-3"}).get_int<int>("k", 51), -3);
  EXPECT_EQ(make_args({"--k=7"}).get_int<int>("k", 51), 7);
  EXPECT_EQ(make_args({}).get_int<int>("k", 51), 51);
  EXPECT_EQ(make_args({"--n", "99999999999"}).get_int("n", 0L),
            99999999999L);
}

TEST(CliArgs, GetIntRejectsPartialParses) {
  for (const char* bad : {"31x", "4.5", "31.5", "x4", "", "+", "4 ", " 4"})
    EXPECT_NE(int_error<int>(bad).find("expects an integer"),
              std::string::npos)
        << "'" << bad << "'";
}

TEST(CliArgs, GetIntRejectsValuesOutsideTheFlagType) {
  EXPECT_NE(int_error<int>("99999999999").find("out of range"),
            std::string::npos);
  EXPECT_NE(int_error<int>("-99999999999").find("out of range"),
            std::string::npos);
  EXPECT_NE(int_error<long>("99999999999999999999").find("out of range"),
            std::string::npos);
  EXPECT_EQ(int_error<int>("2147483647"), "");
}

TEST(CliArgs, AlignFlagsRejectOutOfRangeIntFlags) {
  // parse_align_flags only parses: no runtime, no threads.
  for (const char* flag : {"--k", "--ranks", "--ppn", "--shards"}) {
    const Args args = make_args(
        {"--targets", "t.fa", flag, "4294967297"});  // 2^32 + 1
    EXPECT_THROW((void)mera::tools::parse_align_flags(args), UsageError)
        << flag;
  }
  const Args junk = make_args({"--targets", "t.fa", "--ranks", "4x"});
  EXPECT_THROW((void)mera::tools::parse_align_flags(junk), UsageError);
  const Args ok = make_args({"--targets", "t.fa", "--ranks", "4", "--k", "31"});
  const auto flags = mera::tools::parse_align_flags(ok);
  EXPECT_EQ(flags.nranks, 4);
  EXPECT_EQ(flags.index.k, 31);
}

}  // namespace
