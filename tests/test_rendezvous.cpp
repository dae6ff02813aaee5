// Tests for the rendezvous module: the Lemma 8 schedule algebra, the
// Algorithm 7 program structure, the overlap lemmas, the Lemma 13 round
// bound, and the Theorem 4 feasibility classification.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <tuple>

#include "geom/difference_map.hpp"
#include "mathx/binary.hpp"
#include "mathx/constants.hpp"
#include "rendezvous/algorithm7.hpp"
#include "rendezvous/core.hpp"
#include "rendezvous/feasibility.hpp"
#include "rendezvous/schedule.hpp"
#include "search/algorithm4.hpp"
#include "search/emitter.hpp"
#include "search/times.hpp"

namespace {

using namespace rv::rendezvous;
using rv::geom::RobotAttributes;
using rv::geom::Vec2;
using rv::mathx::Interval;
using rv::mathx::kPi;

// ---------------------------------------------------------------------------
// Lemma 8 schedule algebra
// ---------------------------------------------------------------------------

TEST(Schedule, SearchAllTimeClosedForm) {
  // S(n) = 12(π+1)·n·2ⁿ must equal the prefix sums of Lemma 2.
  for (int n = 1; n <= 14; ++n) {
    EXPECT_NEAR(search_all_time(n), rv::search::time_first_rounds(n),
                1e-9 * search_all_time(n))
        << n;
  }
  EXPECT_THROW((void)search_all_time(0), std::invalid_argument);
}

TEST(Schedule, FirstInactivePhaseStartsAtZero) {
  EXPECT_DOUBLE_EQ(inactive_start(1), 0.0);
}

TEST(Schedule, PhaseIdentities) {
  for (int n = 1; n <= 12; ++n) {
    const double s = search_all_time(n);
    // A(n) − I(n) = 2S(n): the inactive phase lasts 2S(n).
    EXPECT_NEAR(active_start(n) - inactive_start(n), 2.0 * s, 1e-6) << n;
    // I(n+1) − A(n) = 2S(n): the active phase lasts 2S(n).
    EXPECT_NEAR(inactive_start(n + 1) - active_start(n), 2.0 * s, 1e-6) << n;
    // Round n therefore lasts 4S(n).
    EXPECT_NEAR(inactive_start(n + 1) - inactive_start(n), 4.0 * s, 1e-6) << n;
  }
}

TEST(Schedule, PhaseIntervalHelpers) {
  const Interval inact = inactive_phase(3);
  EXPECT_DOUBLE_EQ(inact.lo, inactive_start(3));
  EXPECT_DOUBLE_EQ(inact.hi, active_start(3));
  const Interval act = active_phase(3);
  EXPECT_DOUBLE_EQ(act.lo, active_start(3));
  EXPECT_DOUBLE_EQ(act.hi, inactive_start(4));
  // Global scaling by τ.
  const Interval g = inactive_phase_global(3, 0.5);
  EXPECT_DOUBLE_EQ(g.lo, 0.5 * inact.lo);
  EXPECT_DOUBLE_EQ(g.hi, 0.5 * inact.hi);
  EXPECT_THROW((void)inactive_phase_global(3, 0.0), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Algorithm 7 program structure
// ---------------------------------------------------------------------------

TEST(Algorithm7Program, MarksMatchLemma8Schedule) {
  rv::traj::MarkRecorder rec;
  RendezvousProgram prog(&rec);
  while (prog.current_round() <= 4) (void)prog.next();
  for (int n = 1; n <= 4; ++n) {
    const auto* inact = rec.find("inactive " + std::to_string(n));
    ASSERT_NE(inact, nullptr) << n;
    EXPECT_NEAR(inact->local_time, inactive_start(n),
                1e-9 * (1.0 + inactive_start(n)))
        << "I(" << n << ")";
    const auto* act = rec.find("searchall " + std::to_string(n));
    ASSERT_NE(act, nullptr) << n;
    EXPECT_NEAR(act->local_time, active_start(n),
                1e-9 * (1.0 + active_start(n)))
        << "A(" << n << ")";
    // SearchAllRev begins exactly S(n) after the active phase starts.
    const auto* rev = rec.find("searchallrev " + std::to_string(n));
    ASSERT_NE(rev, nullptr) << n;
    EXPECT_NEAR(rev->local_time, active_start(n) + search_all_time(n),
                1e-9 * (1.0 + rev->local_time))
        << n;
  }
}

TEST(Algorithm7Program, MarksEqualADurationReplayBitForBit) {
  // The recorded local clock must be exactly the running sum of
  // traj::duration over the emitted segments, in emission order.  A
  // phase boundary is stamped with the time before the segment whose
  // pull crossed it, except "searchall n", stamped when the inactive
  // wait just emitted ends.
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  rv::traj::MarkRecorder rec;
  RendezvousProgram prog(&rec);
  double clock = 0.0;
  std::size_t seen = 0;
  while (prog.current_round() <= 6) {
    const double before = clock;
    const auto seg = prog.next();
    clock += rv::traj::duration(seg);
    for (; seen < rec.marks().size(); ++seen) {
      const auto& mark = rec.marks()[seen];
      const bool at_end = mark.label.starts_with("searchall ");
      EXPECT_EQ(bits(mark.local_time), bits(at_end ? clock : before))
          << mark.label;
    }
  }
  // inactive 1..7, searchall 1..7, searchallrev 1..6.
  EXPECT_EQ(rec.marks().size(), 20u);
}

TEST(Algorithm7Program, EmitsContinuousTrajectory) {
  RendezvousProgram prog;
  Vec2 cursor{0.0, 0.0};
  int count = 0;
  while (prog.current_round() <= 2) {
    const auto seg = prog.next();
    ASSERT_TRUE(rv::geom::approx_equal(rv::traj::start_point(seg), cursor,
                                       1e-9))
        << "discontinuity at segment " << count;
    cursor = rv::traj::end_point(seg);
    ++count;
  }
  EXPECT_GT(count, 20);
}

TEST(Algorithm7Program, FirstSegmentIsTheRound1Wait) {
  RendezvousProgram prog;
  const auto seg = prog.next();
  const auto* wait = std::get_if<rv::traj::WaitSeg>(&seg);
  ASSERT_NE(wait, nullptr);
  EXPECT_NEAR(wait->duration, 2.0 * search_all_time(1), 1e-9);
}

TEST(Algorithm7Program, SearchAllRevMirrorsSearchAll) {
  // Within round 2 the active phase is Search(1)Search(2) followed by
  // Search(2)Search(1): total active time 2S(2).
  rv::traj::MarkRecorder rec;
  RendezvousProgram prog(&rec);
  while (prog.current_round() <= 2) (void)prog.next();
  const auto* a2 = rec.find("searchall 2");
  const auto* i3 = rec.find("inactive 3");
  ASSERT_NE(a2, nullptr);
  ASSERT_NE(i3, nullptr);
  EXPECT_NEAR(i3->local_time - a2->local_time, 2.0 * search_all_time(2),
              1e-9 * (1.0 + i3->local_time));
}

TEST(Algorithm7Program, ActiveForwardPassIsAnAlgorithm4Prefix) {
  // Algorithm 5 (SearchAll(n)) is by definition the first n rounds of
  // Algorithm 4: the segments Algorithm 7 emits in a forward pass must
  // be byte-for-byte the prefix of the standalone search program.
  rv::traj::MarkRecorder rec;
  RendezvousProgram rdv(&rec);
  rv::search::SearchProgram search;

  // Skip the round-1 wait, then compare the whole SearchAll(1) pass.
  const auto wait1 = rdv.next();
  ASSERT_TRUE(std::holds_alternative<rv::traj::WaitSeg>(wait1));
  rv::search::SearchRoundEmitter probe(1);
  const auto pass_segments = probe.total_segments();
  for (std::uint64_t i = 0; i < pass_segments; ++i) {
    ASSERT_EQ(rdv.next(), search.next()) << "segment " << i;
  }
}

// ---------------------------------------------------------------------------
// Overlap lemmas (Lemmas 9 and 10)
// ---------------------------------------------------------------------------

TEST(OverlapLemmas, Lemma9WindowShape) {
  const Interval w = lemma9_tau_window(8, 0);
  // k/(k+1+a)·2^{−1} = 8/9·1/2 = 4/9; upper = 3/2·lower = 2/3.
  EXPECT_NEAR(w.lo, 4.0 / 9.0, 1e-12);
  EXPECT_NEAR(w.hi, 2.0 / 3.0, 1e-12);
  EXPECT_THROW((void)lemma9_tau_window(1, 0), std::invalid_argument);
  EXPECT_THROW((void)lemma9_tau_window(8, -1), std::invalid_argument);
}

class Lemma9Property : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(Lemma9Property, OverlapIsPositiveAndMatchesIntervalAlgebra) {
  const auto [k, a] = GetParam();
  const Interval w = lemma9_tau_window(k, a);
  // Sample τ inside the window and check the claimed overlap appears
  // between the phase intervals themselves.
  for (const double frac : {0.1, 0.5, 0.9}) {
    const double tau = w.lo + frac * (w.hi - w.lo);
    const double claimed = lemma9_overlap(tau, k, a);
    EXPECT_GT(claimed, 0.0) << "tau=" << tau;
    // Lemma 9's geometry: τ·I(k+1+a) ≤ A(k) ≤ τ·A(k+1+a); the overlap
    // between R's active phase k and R′'s inactive phase (k+1+a) is
    // then exactly τ·A(k+1+a) − A(k).
    const Interval active = active_phase_global(k, 1.0);
    const Interval inactive = inactive_phase_global(k + 1 + a, tau);
    const double measured = rv::mathx::overlap_length(active, inactive);
    EXPECT_NEAR(measured, std::min(claimed, active.length()),
                1e-6 * (1.0 + measured))
        << "k=" << k << " a=" << a << " tau=" << tau;
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, Lemma9Property,
                         ::testing::Values(std::make_tuple(2, 0),
                                           std::make_tuple(4, 0),
                                           std::make_tuple(8, 0),
                                           std::make_tuple(12, 1),
                                           std::make_tuple(16, 1),
                                           std::make_tuple(10, 2),
                                           std::make_tuple(20, 2)));

TEST(OverlapLemmas, Lemma10WindowShape) {
  const Interval w = lemma10_tau_window(8, 0);
  EXPECT_NEAR(w.lo, (2.0 / 3.0) * (8.0 / 8.0), 1e-12);
  EXPECT_NEAR(w.hi, 8.0 / 9.0, 1e-12);
}

class Lemma10Property : public ::testing::TestWithParam<std::tuple<int, int>> {
};

TEST_P(Lemma10Property, OverlapMatchesIntervalAlgebra) {
  const auto [k, a] = GetParam();
  const Interval w = lemma10_tau_window(k, a);
  for (const double frac : {0.1, 0.5, 0.9}) {
    const double tau = w.lo + frac * (w.hi - w.lo);
    const double claimed = lemma10_overlap(tau, k, a);
    EXPECT_GT(claimed, 0.0);
    // Lemma 10: the (k−1)st active phase of R ends at I(k); R′'s
    // (k+a)th inactive phase starts at τ·I(k+a) before that.
    const Interval active = active_phase_global(k - 1, 1.0);
    const Interval inactive = inactive_phase_global(k + a, tau);
    const double measured = rv::mathx::overlap_length(active, inactive);
    EXPECT_NEAR(measured, std::min(claimed, active.length()),
                1e-6 * (1.0 + measured))
        << "k=" << k << " a=" << a << " tau=" << tau;
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, Lemma10Property,
                         ::testing::Values(std::make_tuple(4, 0),
                                           std::make_tuple(8, 0),
                                           std::make_tuple(16, 0),
                                           std::make_tuple(12, 1),
                                           std::make_tuple(24, 2)));

TEST(OverlapLemmas, OverlapGrowsWithoutBound) {
  // For τ = 1/2 (a = 0, t = 1/2) the Lemma 9 overlap must grow with k:
  // this is the engine of Theorem 3.
  double prev = 0.0;
  for (int k = 8; k <= 20; k += 2) {
    const double o = lemma9_overlap(0.5, k, 0);
    EXPECT_GT(o, prev) << k;
    prev = o;
  }
  EXPECT_GT(prev, search_all_time(8));  // eventually exceeds S(n)
}

TEST(OverlapLemmas, BestOverlapScanFindsWindows) {
  const auto best = best_overlap_with_inactive(8, 0.5);
  ASSERT_TRUE(best.has_value());
  EXPECT_GT(best->length(), 0.0);
}

// ---------------------------------------------------------------------------
// Lemma 13 round bound
// ---------------------------------------------------------------------------

TEST(RoundBound, PowerOfTwoClockUsesFirstBranch) {
  // τ = 1/2 → t = 1/2, a = 0: k* = max(8, n + ⌈log₂ n⌉).
  EXPECT_EQ(rendezvous_round_bound(0.5, 2), 8);
  EXPECT_EQ(rendezvous_round_bound(0.5, 10), 14);
  // τ = 1/4 → a = 1: k* = max(16, ...).
  EXPECT_EQ(rendezvous_round_bound(0.25, 2), 16);
}

TEST(RoundBound, NearOneClockUsesSecondBranch) {
  // τ = 0.9 → t = 0.9, a = 0: k* = max(0.9/0.1, n + ⌈log₂(n/0.1)⌉).
  const int k = rendezvous_round_bound(0.9, 2);
  EXPECT_EQ(k, 9);  // max(0.9/0.1, 2 + ⌈log₂ 20⌉) = max(9, 7)
}

TEST(RoundBound, MonotoneInFindRound) {
  for (const double tau : {0.5, 0.3, 0.75, 0.9, 0.99}) {
    int prev = 0;
    for (int n = 1; n <= 12; ++n) {
      const int k = rendezvous_round_bound(tau, n);
      EXPECT_GE(k, prev) << "tau=" << tau << " n=" << n;
      EXPECT_GE(k, n) << "bound below find round";
      prev = k;
    }
  }
}

TEST(RoundBound, DivergesAsTauApproachesOne) {
  // The closer τ is to 1, the harder symmetry breaking gets.
  EXPECT_LT(rendezvous_round_bound(0.75, 4), rendezvous_round_bound(0.9, 4));
  EXPECT_LT(rendezvous_round_bound(0.9, 4), rendezvous_round_bound(0.99, 4));
}

TEST(RoundBound, DomainChecks) {
  EXPECT_THROW((void)rendezvous_round_bound(0.0, 2), std::invalid_argument);
  EXPECT_THROW((void)rendezvous_round_bound(1.0, 2), std::invalid_argument);
  EXPECT_THROW((void)rendezvous_round_bound(0.5, 0), std::invalid_argument);
}

TEST(RoundBound, TimeBoundIsEndOfRoundKStar) {
  const int k = rendezvous_round_bound(0.5, 2);
  EXPECT_DOUBLE_EQ(rendezvous_time_bound(0.5, 2), inactive_start(k + 1));
}

// ---------------------------------------------------------------------------
// Theorem 4 feasibility
// ---------------------------------------------------------------------------

RobotAttributes attrs(double v, double tau, double phi, int chi) {
  RobotAttributes a;
  a.speed = v;
  a.time_unit = tau;
  a.orientation = phi;
  a.chirality = chi;
  return a;
}

TEST(Feasibility, TruthTable) {
  // τ ≠ 1 ⇒ feasible regardless of everything else.
  EXPECT_TRUE(rendezvous_feasible(attrs(1.0, 0.5, 0.0, 1)));
  EXPECT_TRUE(rendezvous_feasible(attrs(1.0, 2.0, 0.0, -1)));
  EXPECT_TRUE(rendezvous_feasible(attrs(1.0, 0.99, kPi, -1)));
  // v ≠ 1, τ = 1 ⇒ feasible.
  EXPECT_TRUE(rendezvous_feasible(attrs(2.0, 1.0, 0.0, 1)));
  EXPECT_TRUE(rendezvous_feasible(attrs(0.5, 1.0, 0.0, -1)));
  // v = τ = 1: feasible iff χ = 1 and φ ≠ 0.
  EXPECT_TRUE(rendezvous_feasible(attrs(1.0, 1.0, 1.0, 1)));
  EXPECT_TRUE(rendezvous_feasible(attrs(1.0, 1.0, kPi, 1)));
  EXPECT_FALSE(rendezvous_feasible(attrs(1.0, 1.0, 0.0, 1)));
  EXPECT_FALSE(rendezvous_feasible(attrs(1.0, 1.0, 0.0, -1)));
  EXPECT_FALSE(rendezvous_feasible(attrs(1.0, 1.0, 1.0, -1)));
  EXPECT_FALSE(rendezvous_feasible(attrs(1.0, 1.0, kPi, -1)));
}

TEST(Feasibility, ClassificationPriorities) {
  EXPECT_EQ(classify(attrs(2.0, 0.5, 1.0, -1)),
            FeasibilityClass::kDifferentClocks);
  EXPECT_EQ(classify(attrs(2.0, 1.0, 1.0, -1)),
            FeasibilityClass::kDifferentSpeeds);
  EXPECT_EQ(classify(attrs(1.0, 1.0, 1.0, 1)),
            FeasibilityClass::kOrientationOnly);
  EXPECT_EQ(classify(attrs(1.0, 1.0, 0.0, 1)),
            FeasibilityClass::kInfeasibleIdentical);
  EXPECT_EQ(classify(attrs(1.0, 1.0, 2.0, -1)),
            FeasibilityClass::kInfeasibleMirror);
}

TEST(Feasibility, DescribeIsNonEmptyForAllClasses) {
  for (const auto c :
       {FeasibilityClass::kDifferentClocks, FeasibilityClass::kDifferentSpeeds,
        FeasibilityClass::kOrientationOnly,
        FeasibilityClass::kInfeasibleIdentical,
        FeasibilityClass::kInfeasibleMirror}) {
    EXPECT_FALSE(describe(c).empty());
    EXPECT_EQ(is_feasible(c),
              describe(c).rfind("feasible", 0) == 0);
  }
}

TEST(Feasibility, SeparationLowerBoundIdentical) {
  const Vec2 offset{3.0, 4.0};
  EXPECT_DOUBLE_EQ(separation_lower_bound(attrs(1.0, 1.0, 0.0, 1), offset),
                   5.0);
}

TEST(Feasibility, SeparationLowerBoundMirror) {
  // Mirror robots with φ = 0: T∘ = diag(0, 2) — difference confined to
  // the y axis.  Offset (3, 4): the x component 3 is invariant.
  EXPECT_NEAR(separation_lower_bound(attrs(1.0, 1.0, 0.0, -1), {3.0, 4.0}),
              3.0, 1e-12);
  // Offset aligned with the difference line: lower bound 0 (but the
  // tuple is still infeasible in general position).
  EXPECT_NEAR(separation_lower_bound(attrs(1.0, 1.0, 0.0, -1), {0.0, 4.0}),
              0.0, 1e-12);
}

TEST(Feasibility, SeparationLowerBoundZeroForFeasible) {
  EXPECT_DOUBLE_EQ(separation_lower_bound(attrs(2.0, 1.0, 0.0, 1), {1.0, 0.0}),
                   0.0);
}

TEST(Feasibility, MirrorLowerBoundIsPerpendicularComponent) {
  // General φ: the difference line is span(T∘ columns); check against
  // a direct computation.
  const double phi = 1.1;
  const auto a = attrs(1.0, 1.0, phi, -1);
  const auto t_circ = rv::geom::difference_matrix(1.0, phi, -1);
  const Vec2 col{t_circ.a, t_circ.c};
  const Vec2 u = rv::geom::normalized(col);
  const Vec2 offset{2.0, -1.0};
  EXPECT_NEAR(separation_lower_bound(a, offset),
              std::abs(rv::geom::cross(u, offset)), 1e-12);
}

// ---------------------------------------------------------------------------
// Core facade
// ---------------------------------------------------------------------------

TEST(CoreFacade, ValidatesScenario) {
  Scenario s;
  s.offset = {0.0, 0.0};
  EXPECT_THROW((void)run_scenario(s), std::invalid_argument);
  s.offset = {1.0, 0.0};
  s.visibility = 0.0;
  EXPECT_THROW((void)run_scenario(s), std::invalid_argument);
}

TEST(CoreFacade, FactorySelectsAlgorithm) {
  EXPECT_EQ(program_factory(AlgorithmChoice::kAlgorithm4)()->name(),
            "algorithm4");
  EXPECT_EQ(program_factory(AlgorithmChoice::kAlgorithm7)()->name(),
            "algorithm7");
}

TEST(CoreFacade, QuickSpeedDifferenceScenarioMeets) {
  Scenario s;
  s.attrs = attrs(2.0, 1.0, 0.0, 1);
  s.offset = {1.0, 0.0};
  s.visibility = 0.25;
  s.algorithm = AlgorithmChoice::kAlgorithm4;
  s.max_time = 1e5;
  const Outcome out = run_scenario(s);
  EXPECT_TRUE(out.sim.met);
  EXPECT_EQ(out.feasibility, FeasibilityClass::kDifferentSpeeds);
  EXPECT_DOUBLE_EQ(out.initial_distance, 1.0);
  EXPECT_EQ(out.algorithm_name, "algorithm4");
}

}  // namespace
