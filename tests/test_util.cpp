// Unit tests for src/util: PRNG, tables, CLI parsing, env helpers.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <set>
#include <sstream>

#include "util/cli.hpp"
#include "util/env.hpp"
#include "util/random.hpp"
#include "util/slab.hpp"
#include "util/table.hpp"

namespace sepsp {
namespace {

TEST(Rng, DeterministicPerSeed) {
  Rng a(123), b(123), c(124);
  for (int i = 0; i < 100; ++i) {
    const auto va = a();
    EXPECT_EQ(va, b());
    // Different seeds diverge almost surely.
  }
  int equal = 0;
  Rng a2(123);
  for (int i = 0; i < 100; ++i) equal += (a2() == c());
  EXPECT_LT(equal, 3);
}

TEST(Rng, NextBelowIsInRangeAndRoughlyUniform) {
  Rng rng(7);
  std::vector<int> histogram(10, 0);
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) {
    const auto v = rng.next_below(10);
    ASSERT_LT(v, 10u);
    ++histogram[v];
  }
  for (const int count : histogram) {
    EXPECT_NEAR(count, trials / 10, trials / 100);
  }
}

TEST(Rng, NextIntCoversBoundsInclusive) {
  Rng rng(9);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.next_int(-3, 3));
  EXPECT_EQ(seen.size(), 7u);
  EXPECT_EQ(*seen.begin(), -3);
  EXPECT_EQ(*seen.rbegin(), 3);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(11);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.next_double();
    ASSERT_GE(x, 0.0);
    ASSERT_LT(x, 1.0);
    sum += x;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng rng(5);
  Rng child = rng.fork();
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (rng() == child());
  EXPECT_LT(equal, 3);
}

TEST(Rng, ShuffleIsAPermutation) {
  Rng rng(13);
  std::vector<int> v{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  shuffle(v, rng);
  std::vector<int> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < 10; ++i) EXPECT_EQ(sorted[i], i);
}

TEST(Splitmix, MixesNearbySeeds) {
  EXPECT_NE(splitmix64(1), splitmix64(2));
  EXPECT_NE(splitmix64(0), 0u);
}

TEST(Table, PrintsAlignedRows) {
  Table t("demo");
  t.set_header({"a", "value"});
  t.add_row().cell(1).cell(2.5);
  t.add_row().cell(std::uint64_t{12345}).cell("xyz");
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("demo"), std::string::npos);
  EXPECT_NE(s.find("12345"), std::string::npos);
  EXPECT_NE(s.find("2.500"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(Table, WithCommas) {
  EXPECT_EQ(with_commas(0), "0");
  EXPECT_EQ(with_commas(999), "999");
  EXPECT_EQ(with_commas(1000), "1,000");
  EXPECT_EQ(with_commas(1234567), "1,234,567");
  EXPECT_EQ(with_commas(1000000000ULL), "1,000,000,000");
}

TEST(Table, LogLogSlopeRecoversExponent) {
  std::vector<double> xs, ys;
  for (double x : {100.0, 200.0, 400.0, 800.0}) {
    xs.push_back(x);
    ys.push_back(3.0 * std::pow(x, 1.5));
  }
  EXPECT_NEAR(fit_log_log_slope(xs, ys), 1.5, 1e-9);
}

TEST(Args, ParsesAllForms) {
  const char* argv[] = {"prog",       "--alpha=3",  "--beta", "4",
                        "positional", "--flag",     "--gamma=x"};
  const Args args(7, argv);
  EXPECT_EQ(args.get_int("alpha", 0), 3);
  EXPECT_EQ(args.get_int("beta", 0), 4);
  EXPECT_TRUE(args.get_bool("flag", false));
  EXPECT_EQ(args.get_string("gamma", ""), "x");
  EXPECT_EQ(args.get_int("missing", 42), 42);
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "positional");
  EXPECT_EQ(args.program(), "prog");
}

TEST(Args, GetUintParsesAndValidates) {
  const char* argv[] = {"prog", "--n=12", "--neg=-1", "--big=100"};
  const Args args(4, argv);
  EXPECT_EQ(args.get_uint("n", 0), 12u);
  EXPECT_EQ(args.get_uint("missing", 7), 7u);
  EXPECT_EQ(args.get_uint("n", 0, 1, 64), 12u);
  EXPECT_DEATH(args.get_uint("neg", 0), "non-negative");
  EXPECT_DEATH(args.get_uint("big", 0, 1, 64), "out of range");
  EXPECT_DEATH(args.get_uint("n", 0, 16, 64), "out of range");
}

TEST(Args, BooleanNegatives) {
  const char* argv[] = {"prog", "--x=false", "--y=0", "--z=no"};
  const Args args(4, argv);
  EXPECT_FALSE(args.get_bool("x", true));
  EXPECT_FALSE(args.get_bool("y", true));
  EXPECT_FALSE(args.get_bool("z", true));
}

std::vector<double> iota_values(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i);
  return v;
}

// A fresh slab vector holding `values`, filled through init() as the
// engine fills its buckets.
SlabVector<double> slab_vector(const std::vector<double>& values) {
  SlabVector<double> out(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) out.init(i, values[i]);
  return out;
}

TEST(SlabVector, RoundTripsContentsAcrossSlabBoundaries) {
  // A ragged tail: two full slabs plus a partial third.
  const std::size_t n = 2 * SlabVector<double>::kSlabEntries + 100;
  const auto init = iota_values(n);
  const SlabVector<double> v = slab_vector(init);
  ASSERT_EQ(v.size(), n);
  EXPECT_EQ(v.slab_count(), 3u);
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(v[i], init[i]) << i;

  std::size_t covered = 0;
  std::size_t runs = 0;
  v.for_each_run([&](std::size_t lo, std::size_t len, const double* data) {
    EXPECT_EQ(lo, runs * SlabVector<double>::kSlabEntries);
    for (std::size_t i = 0; i < len; ++i) ASSERT_EQ(data[i], init[lo + i]);
    covered += len;
    ++runs;
  });
  EXPECT_EQ(covered, n);
  EXPECT_EQ(runs, 3u);
}

TEST(SlabVector, ForkAliasesEverySlab) {
  const auto init = iota_values(SlabVector<double>::kSlabEntries + 5);
  SlabVector<double> owner = slab_vector(init);
  const SlabVector<double> fork = owner.fork();
  ASSERT_EQ(fork.slab_count(), owner.slab_count());
  for (std::size_t s = 0; s < owner.slab_count(); ++s) {
    EXPECT_EQ(owner.slab_data(s), fork.slab_data(s)) << s;
  }
  EXPECT_EQ(owner.slabs_shared_with(fork), owner.slab_count());
}

TEST(SlabVector, SetClonesSharedSlabOnceAndFreezesForks) {
  const std::size_t n = 2 * SlabVector<double>::kSlabEntries;
  SlabVector<double> owner = slab_vector(iota_values(n));
  const SlabVector<double> fork = owner.fork();

  // First write to a shared slab clones it; the fork keeps the old
  // values and the old storage.
  const double* fork_slab0 = fork.slab_data(0);
  EXPECT_TRUE(owner.set(10, -1.0));
  EXPECT_EQ(owner[10], -1.0);
  EXPECT_EQ(fork[10], 10.0);
  EXPECT_EQ(fork.slab_data(0), fork_slab0);
  EXPECT_NE(owner.slab_data(0), fork.slab_data(0));
  EXPECT_EQ(owner.slabs_shared_with(fork), owner.slab_count() - 1);

  // Further writes into the already-detached slab are in place.
  EXPECT_FALSE(owner.set(11, -2.0));
  EXPECT_EQ(fork[11], 11.0);

  // The untouched slab stays aliased.
  EXPECT_EQ(owner.slab_data(1), fork.slab_data(1));
}

TEST(SlabVector, RepeatedForksStayIndependent) {
  SlabVector<double> owner = slab_vector(iota_values(64));
  const SlabVector<double> epoch0 = owner.fork();
  owner.set(0, 100.0);
  const SlabVector<double> epoch1 = owner.fork();
  owner.set(0, 200.0);
  EXPECT_EQ(epoch0[0], 0.0);
  EXPECT_EQ(epoch1[0], 100.0);
  EXPECT_EQ(owner[0], 200.0);
  EXPECT_EQ(epoch0.slabs_shared_with(epoch1), 0u);
}

TEST(Env, ReadsAndFallsBack) {
  ::setenv("SEPSP_TEST_ENV_INT", "17", 1);
  EXPECT_EQ(env_int("SEPSP_TEST_ENV_INT", 1), 17);
  EXPECT_EQ(env_int("SEPSP_TEST_ENV_MISSING", 5), 5);
  ::setenv("SEPSP_TEST_ENV_BAD", "zzz", 1);
  EXPECT_EQ(env_int("SEPSP_TEST_ENV_BAD", 9), 9);
  EXPECT_EQ(env_string("SEPSP_TEST_ENV_MISSING", "dflt"), "dflt");
}

}  // namespace
}  // namespace sepsp
