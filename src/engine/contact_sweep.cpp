#include "engine/contact_sweep.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

namespace rv::engine {

using geom::Vec2;
using traj::TimedSegment;

namespace {
void validate_options(const SweepOptions& o) {
  // std::isfinite guards alongside the sign checks: a NaN fails a
  // `> 0` comparison (and is caught), but +inf passes it, and an
  // infinite radius/horizon/tolerance would silently break the
  // certified stepping arithmetic (inf − inf, 0·inf).
  if (!std::isfinite(o.visibility) || !(o.visibility > 0.0)) {
    throw std::invalid_argument("ContactSweep: visibility must be finite > 0");
  }
  if (!std::isfinite(o.max_time) || !(o.max_time > 0.0)) {
    throw std::invalid_argument("ContactSweep: max_time must be finite > 0");
  }
  if (!std::isfinite(o.contact_tol) || !(o.contact_tol >= 0.0) ||
      !std::isfinite(o.time_tol) || !(o.time_tol > 0.0) ||
      !std::isfinite(o.min_step) || !(o.min_step > 0.0)) {
    throw std::invalid_argument("ContactSweep: bad tolerances");
  }
}
}  // namespace

ContactSweep::ContactSweep(std::vector<RobotSpec> robots, SweepMetric metric,
                           SweepOptions options)
    : metric_(metric), opts_(options) {
  validate_options(opts_);
  if (robots.size() < 2) {
    throw std::invalid_argument("ContactSweep: need >= 2 robots");
  }
  streams_.reserve(robots.size());
  for (RobotSpec& spec : robots) {
    if (!spec.program) {
      throw std::invalid_argument("ContactSweep: null program");
    }
    streams_.emplace_back(std::move(spec.program), spec.attributes,
                          spec.origin);
  }
}

void ContactSweep::start(SweepResult& res) {
  const std::size_t n = streams_.size();
  current_.clear();
  current_.reserve(n);
  for (auto& stream : streams_) {
    current_.push_back(stream.next());
    ++res.segments;
  }
  batch_.assemble(current_);
  pos_.resize(n);
}

bool ContactSweep::pull(double t, SweepResult& res, double* window_end) {
  *window_end = opts_.max_time;
  bool pulled = false;
  for (std::size_t i = 0; i < streams_.size(); ++i) {
    TimedSegment& seg = current_[i];
    if (seg.t1 <= t) {
      do {
        seg = streams_[i].next();
        ++res.segments;
      } while (seg.t1 <= t);
      // Only the robot's final pulled segment covers t: repack its slot.
      batch_.update(i, seg);
      pulled = true;
    }
    *window_end = std::min(*window_end, seg.t1);
  }
  return pulled;
}

SweepResult ContactSweep::run() {
  if (opts_.solver == SolverChoice::kBisection) return run_bisection();
  return run_analytic(opts_.solver == SolverChoice::kAuto);
}

SweepResult ContactSweep::run_bisection() {
  SweepResult res;
  res.best_metric = std::numeric_limits<double>::infinity();
  const std::size_t n = streams_.size();
  const double r = opts_.visibility;

  start(res);

  // The sweep metric over current positions; fills the extremal pair.
  // Kernel dispatch (engine/metric_kernel.hpp): same value and same
  // lexicographically-first pair as the historical O(n²) loop.
  auto metric_of = [&](const std::vector<Vec2>& pos, int* out_i, int* out_j) {
    const geom::ExtremalPair p = metric_ == SweepMetric::kMinPairwise
                                     ? min_pairwise(pos, opts_.kernel)
                                     : max_pairwise(pos, opts_.kernel);
    if (out_i) *out_i = p.i;
    if (out_j) *out_j = p.j;
    return p.distance;
  };

  // Counted evaluation at a sweep/bisection point.  The batched SoA
  // evaluator replays the scalar per-robot arithmetic bitwise (see
  // traj/batch.hpp), so the metric stream is unchanged.
  auto evaluate = [&](double at, int* out_i, int* out_j) {
    batch_.positions(at, pos_.data());
    ++res.evals;
    return metric_of(pos_, out_i, out_j);
  };

  // Final positions + metric + extremal pair (reporting only — not a
  // counted eval).  The pair is recomputed here, at the *certified*
  // time, so the reported pair, metric and positions are mutually
  // consistent: the detection evaluation happens at a sweep point
  // strictly after the bisected event time, where a different pair may
  // be extremal.
  auto finalize = [&](double at) {
    res.positions.resize(n);
    batch_.positions(at, res.positions.data());
    res.metric = metric_of(res.positions, &res.pair_i, &res.pair_j);
  };

  double lipschitz = lipschitz_speed_sum(batch_.speeds());
  double t = 0.0;
  double prev_t = 0.0;  // last evaluated time with metric > r
  bool have_prev = false;

  while (t < opts_.max_time && res.evals < opts_.max_evals) {
    // Pull segments forward so every robot covers time t.  The
    // Lipschitz constant L = max over pairs of (v_i + v_j) changes only
    // when a segment does; the pair maximum is the sum of the two
    // largest speeds — computed in O(n), identical value.
    double window_end;
    if (pull(t, res, &window_end)) {
      lipschitz = lipschitz_speed_sum(batch_.speeds());
    }

    const double m = evaluate(t, nullptr, nullptr);
    if (m < res.best_metric) {
      res.best_metric = m;
      res.best_metric_time = t;
    }

    if (m <= r + opts_.contact_tol) {
      // Event (or a graze within tolerance).  If we are strictly inside
      // the disk and have a previous outside point, bisect for the
      // first crossing.
      double event_time = t;
      if (m < r && have_prev) {
        double lo = prev_t, hi = t;
        while (hi - lo > opts_.time_tol) {
          const double mid = 0.5 * (lo + hi);
          if (evaluate(mid, nullptr, nullptr) <= r) {
            hi = mid;
          } else {
            lo = mid;
          }
        }
        event_time = hi;
      }
      res.event = true;
      res.time = event_time;
      finalize(event_time);
      return res;
    }

    prev_t = t;
    have_prev = true;

    // Certified advance: the metric is Lipschitz with constant L on
    // this window, so it cannot reach r before t + (m − r)/L.
    double step;
    if (lipschitz <= 0.0) {
      // Everybody stationary: the metric is constant until the window
      // ends.
      step = window_end - t;
      if (step <= 0.0) step = opts_.min_step;
    } else {
      step = (m - r) / lipschitz;
    }
    step = std::max(step, opts_.min_step);
    const double next_t = std::min(t + step, window_end);
    // Always make progress even at window boundaries.
    t = (next_t > t) ? next_t : t + opts_.min_step;
  }

  // Horizon or eval budget reached without the event.
  res.event = false;
  res.time = std::min(t, opts_.max_time);
  finalize(res.time);
  return res;
}

SweepResult ContactSweep::run_analytic(bool auto_mode) {
  SweepResult res;
  res.best_metric = std::numeric_limits<double>::infinity();
  const std::size_t n = streams_.size();
  const double r = opts_.visibility;

  CrossingControls controls;
  controls.time_tol = opts_.time_tol;
  controls.min_step = opts_.min_step;

  start(res);

  auto metric_of = [&](const std::vector<Vec2>& pos, int* out_i, int* out_j) {
    const geom::ExtremalPair p = metric_ == SweepMetric::kMinPairwise
                                     ? min_pairwise(pos, opts_.kernel)
                                     : max_pairwise(pos, opts_.kernel);
    if (out_i) *out_i = p.i;
    if (out_j) *out_j = p.j;
    return p.distance;
  };

  auto evaluate = [&](double at, int* out_i, int* out_j) {
    batch_.positions(at, pos_.data());
    ++res.evals;
    return metric_of(pos_, out_i, out_j);
  };

  auto finalize = [&](double at) {
    res.positions.resize(n);
    batch_.positions(at, res.positions.data());
    res.metric = metric_of(res.positions, &res.pair_i, &res.pair_j);
  };

  double t = 0.0;

  while (t < opts_.max_time && res.evals < opts_.max_evals) {
    double window_end;
    (void)pull(t, res, &window_end);

    int ext_i = -1, ext_j = -1;
    const double m = evaluate(t, &ext_i, &ext_j);
    if (m < res.best_metric) {
      res.best_metric = m;
      res.best_metric_time = t;
    }

    if (m <= r + opts_.contact_tol) {
      // Every advance below is certified (the metric provably stays
      // above r strictly before t, up to the Zeno guard), so the first
      // evaluation at or inside the contact band *is* the event — no
      // bisection refinement needed.
      res.event = true;
      res.time = t;
      finalize(t);
      return res;
    }

    const double w = window_end - t;
    bool poly_window = true;
    for (std::size_t i = 0; i < n; ++i) {
      if (!is_polynomial(current_[i])) {
        poly_window = false;
        break;
      }
    }

    double next_t;
    if (auto_mode && !poly_window) {
      // kAuto on an arc window: the classic certified Lipschitz step
      // (the per-pair arc search may not pay off; kAnalytic forces it).
      const double lipschitz = lipschitz_speed_sum(batch_.speeds());
      double step;
      if (lipschitz <= 0.0) {
        step = w > 0.0 ? w : opts_.min_step;
      } else {
        step = (m - r) / lipschitz;
      }
      step = std::max(step, opts_.min_step);
      next_t = std::min(t + step, window_end);
    } else if (metric_ == SweepMetric::kMaxPairwise) {
      // The max metric dominates every pair, so the current extremal
      // pair's own first crossing of r is a certified lower bound on
      // the event: before it, metric ≥ d(ext) > r.  Jump there (or to
      // the window end when the pair provably stays above r), then
      // re-evaluate — the new extremal pair drives the next jump.
      const PairCrossing crossing = pair_first_crossing(
          current_[static_cast<std::size_t>(ext_i)],
          current_[static_cast<std::size_t>(ext_j)],
          pos_[static_cast<std::size_t>(ext_i)],
          pos_[static_cast<std::size_t>(ext_j)], t, r, w, controls,
          &res.model_evals);
      next_t = crossing.status == PairCrossing::Status::kClear
                   ? window_end
                   : t + crossing.s;
    } else {
      // The min metric is the lower envelope of all pairs, and every
      // pair starts the window above r (the metric did), so the first
      // pair crossing *is* the event.  A Lipschitz prefilter — pair
      // (i, j) cannot reach r within the window unless
      // d(t) ≤ r + (v_i + v_j)·w — kills almost every pair with one
      // multiply-add before any model is built.
      double s_min = w;  // default: jump to the window end
      const std::vector<double>& speeds = batch_.speeds();
      for (std::size_t i = 0; i + 1 < n; ++i) {
        for (std::size_t j = i + 1; j < n; ++j) {
          const double reach = r + (speeds[i] + speeds[j]) * s_min;
          const Vec2 delta = pos_[j] - pos_[i];
          if (geom::norm_sq(delta) > reach * reach) continue;
          const PairCrossing crossing =
              pair_first_crossing(current_[i], current_[j], pos_[i], pos_[j],
                                  t, r, s_min, controls, &res.model_evals);
          if (crossing.status != PairCrossing::Status::kClear) {
            // Crossing or certified-partial bound: either way the
            // sweep may not advance beyond it.
            s_min = std::min(s_min, crossing.s);
          }
        }
      }
      next_t = t + s_min;
    }

    // Zeno guard: forced progress, as on the bisection path.  A jump
    // landing up to min_step past an exact crossing is caught by the
    // next evaluation (inside the disk ⇒ within the contact band
    // acceptance above, with time error ≤ min_step ≈ time_tol).
    next_t = std::max(next_t, t + opts_.min_step);
    t = std::min(next_t, opts_.max_time);
  }

  res.event = false;
  res.time = std::min(t, opts_.max_time);
  finalize(res.time);
  return res;
}

}  // namespace rv::engine
