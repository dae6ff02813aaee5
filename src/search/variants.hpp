#pragma once

/// \file variants.hpp
/// Parameterised variants of the paper's search round for ablation
/// studies (DESIGN.md §4, experiments A1–A3).
///
/// The paper fixes two design choices inside Search(k):
///  * circles within an annulus are spaced 2ρ apart (radial coverage
///    within ±ρ) — Algorithm 2;
///  * each Search(k) ends with a wait of 3(π+1)(2ᵏ + 2⁻ᵏ), chosen
///    "only in order to simplify algebra" (the Lemma 8 closed forms).
/// `VariantRoundEmitter` exposes both knobs so the ablation benches can
/// measure what each choice buys: spacing > 2 breaks the coverage
/// guarantee, spacing < 2 wastes time, and dropping the wait perturbs
/// the Lemma 8 schedule.

#include <cstdint>
#include <memory>
#include <string>

#include "traj/program.hpp"
#include "traj/segment.hpp"

namespace rv::search {

/// Knobs for the ablation variants of Search(k).
struct VariantOptions {
  /// Circle spacing in units of ρ (paper: 2.0).  Coverage within the
  /// annulus requires ≤ 2.0.
  double spacing_factor = 2.0;
  /// Emit the terminal wait of Search(k) (paper: true).
  bool include_wait = true;

  bool operator==(const VariantOptions&) const = default;
};

/// Search(k) with the `VariantOptions` knobs; with default options the
/// emitted trajectory is identical to `SearchRoundEmitter`.
class VariantRoundEmitter {
 public:
  /// \throws std::invalid_argument for k outside [1, 30] or
  /// non-positive spacing.
  VariantRoundEmitter(int k, const VariantOptions& options);

  [[nodiscard]] bool done() const { return done_; }
  [[nodiscard]] traj::Segment next();
  [[nodiscard]] int k() const { return k_; }

 private:
  int k_;
  VariantOptions opts_;
  int j_ = 0;
  std::uint64_t i_ = 0;
  std::uint64_t count_ = 0;  ///< circles in this sub-round
  int phase_ = 0;
  double inner_ = 0.0;  ///< 2^{−k+j}: radius of the sub-round's circle 0
  double rho_ = 0.0;    ///< 2^{−3k+2j−1}: half the paper's radius step
  bool done_ = false;

  void load_sub_round();
};

/// The Algorithm 4 loop over `VariantRoundEmitter`s: a drop-in
/// replacement for `SearchProgram` with ablation knobs.
class VariantSearchProgram final : public traj::Program {
 public:
  explicit VariantSearchProgram(VariantOptions options);
  [[nodiscard]] traj::Segment next() override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] int current_round() const { return round_; }

 private:
  VariantOptions opts_;
  int round_ = 1;
  VariantRoundEmitter emitter_;
};

/// Factory for the simulator interface.
[[nodiscard]] std::shared_ptr<traj::Program> make_variant_search_program(
    const VariantOptions& options);

}  // namespace rv::search
