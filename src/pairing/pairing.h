// Tate pairing on the type-A curve.
//
// e : G x G -> GT with G = E(F_p)[q] and GT the order-q subgroup of F_p^2*.
// The pairing is symmetric: e(P, Q) := t(P, phi(Q)) where t is the reduced
// Tate pairing and phi(x, y) = (-x, i y) is the distortion map. The Miller
// loop runs in Jacobian coordinates with denominator elimination (vertical
// lines evaluate into F_p and die in the final exponentiation
// z -> z^{(p^2-1)/q} = (z^{p-1})^h).
//
// PreprocessedPairing caches the Miller-loop line coefficients of a fixed
// first argument, roughly halving per-pairing cost — the "with
// preprocessing" mode the paper benchmarks (2.5 ms vs 5.5 ms on its 2011
// hardware).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "ec/curve.h"
#include "math/fp2.h"

namespace apks {

// An element of GT (unitary subgroup of F_p^2*).
using GtEl = Fp2El;

// Coefficients of one Miller-loop line, pre-evaluated against the distortion
// map: line(Q) = (A * x_Q + B) + (C * y_Q) * i.
struct LineCoeffs {
  Fp A{};
  Fp B{};
  Fp C{};
  bool one = false;  // line degenerated to a vertical; contributes 1
};

// A preprocessed line with the y-coefficient normalized away: the stored
// (A, B) are the raw coefficients scaled by C^{-1}. C is an F_p (subfield)
// factor, so the scaling is killed by the final exponentiation and the
// evaluation at phi(Q) drops to a single multiplication:
//   line(Q) = (A * x_Q + B) + y_Q * i.
// All C's of a trace are inverted together with one batch_inv at
// preprocessing time.
struct NormLine {
  Fp A{};
  Fp B{};
  bool one = false;  // vertical line; contributes a subfield factor only
};

class PreprocessedPairing;

// One (P, Q) input slot of a multi-pairing.
struct MillerPair {
  AffinePoint p;
  AffinePoint q;
};

// A snapshot of the pairing-operation counters (the cost unit of
// Fig. 8(d) / Table III). Subtract two snapshots to attribute the work of
// a region: `auto before = e.op_counts(); ...; auto cost = e.op_counts() -
// before;`. Counters are process-wide per Pairing instance and atomically
// updated, so the total is exact even when worker threads pair
// concurrently — but a delta then includes every thread's work. To
// attribute work to one caller, take deltas of Pairing::thread_op_counts()
// on each thread that does that caller's work, and sum them.
struct PairingOpCounts {
  std::uint64_t miller = 0;
  // Shared-accumulator multi-Miller evaluations. A multi-pairing of N slots
  // counts N `miller` probes (the cost unit stays engine-invariant) plus one
  // `multi_miller`, whichever engine — scalar or SIMD — ran it.
  std::uint64_t multi_miller = 0;
  std::uint64_t final_exp = 0;

  PairingOpCounts& operator+=(const PairingOpCounts& o) noexcept {
    miller += o.miller;
    multi_miller += o.multi_miller;
    final_exp += o.final_exp;
    return *this;
  }
  friend PairingOpCounts operator+(PairingOpCounts a,
                                   const PairingOpCounts& b) noexcept {
    return a += b;
  }
  friend PairingOpCounts operator-(const PairingOpCounts& a,
                                   const PairingOpCounts& b) noexcept {
    return {a.miller - b.miller, a.multi_miller - b.multi_miller,
            a.final_exp - b.final_exp};
  }
  friend bool operator==(const PairingOpCounts& a,
                         const PairingOpCounts& b) noexcept {
    return a.miller == b.miller && a.multi_miller == b.multi_miller &&
           a.final_exp == b.final_exp;
  }
};

class Pairing {
 public:
  explicit Pairing(const TypeAParams& params);

  [[nodiscard]] const Curve& curve() const noexcept { return curve_; }
  [[nodiscard]] const Fp2& fp2() const noexcept { return fp2_; }
  [[nodiscard]] const FpField& fp() const noexcept { return curve_.fp(); }
  [[nodiscard]] const FqField& fq() const noexcept { return curve_.fq(); }

  // The full pairing e(P, Q). Returns 1 if either input is infinity.
  [[nodiscard]] GtEl pair(const AffinePoint& p, const AffinePoint& q) const;

  // e(g, g) for the curve generator (cached).
  [[nodiscard]] const GtEl& gt_generator() const noexcept { return gt_gen_; }

  // GT group operations. Elements are unitary, so inversion is conjugation.
  [[nodiscard]] GtEl gt_mul(const GtEl& a, const GtEl& b) const {
    return fp2_.mul(a, b);
  }
  [[nodiscard]] GtEl gt_inv(const GtEl& a) const { return fp2_.conj(a); }
  [[nodiscard]] GtEl gt_pow(const GtEl& a, const Fq& e) const {
    return fp2_.pow(a, fq().to_int(e));
  }
  [[nodiscard]] GtEl gt_one() const { return fp2_.one(); }
  [[nodiscard]] bool gt_is_one(const GtEl& a) const { return fp2_.is_one(a); }

  // Uniform random GT element: gt_generator() ^ r.
  [[nodiscard]] GtEl gt_random(Rng& rng) const {
    return gt_pow(gt_gen_, fq().random(rng));
  }

  // 65-byte compressed GT encoding (unitary: a + sign-of-b). Decoding is a
  // batch of one through CompressedBatch::add_unitary.
  static constexpr std::size_t kGtCompressedSize = Curve::kCompressedSize;
  void gt_serialize(const GtEl& a,
                    std::span<std::uint8_t, kGtCompressedSize> out) const;
  [[nodiscard]] GtEl gt_deserialize(
      std::span<const std::uint8_t, kGtCompressedSize> in) const;

  // Precompute the Miller line coefficients of `p` for repeated pairings.
  [[nodiscard]] PreprocessedPairing preprocess(const AffinePoint& p) const;

  // Pairing-operation counters (the cost unit of Fig. 8(d) / Table III).
  void reset_op_counts() const noexcept {
    miller_count_.store(0, std::memory_order_relaxed);
    multi_miller_count_.store(0, std::memory_order_relaxed);
    final_exp_count_.store(0, std::memory_order_relaxed);
    curve_.reset_op_counts();
  }
  [[nodiscard]] std::uint64_t miller_count() const noexcept {
    return miller_count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t multi_miller_count() const noexcept {
    return multi_miller_count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t final_exp_count() const noexcept {
    return final_exp_count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] PairingOpCounts op_counts() const noexcept {
    return {miller_count(), multi_miller_count(), final_exp_count()};
  }
  // Every pairing operation the calling thread has run, over all Pairing
  // instances (a thread_local bumped next to the process-wide counters).
  [[nodiscard]] static PairingOpCounts thread_op_counts() noexcept;

  // Raw Miller loop without the final exponentiation. A product of Miller
  // values can share a single final_exp:
  //   prod_i e(P_i, Q_i) == final_exp(prod_i miller(P_i, Q_i)).
  // The DPVS layer uses this to pair (n+3)-element vectors at the cost of
  // n+3 Miller loops and one exponentiation.
  [[nodiscard]] Fp2El miller(const AffinePoint& p, const AffinePoint& q) const;

  // True multi-pairing: one shared accumulator squared once per scalar bit,
  // every slot's line evaluations folded into it per step. Algebraically
  // equal to prod_i miller(p_i, q_i) — and therefore bit-identical after
  // final_exp, since canonical residues are unique. Infinity slots
  // contribute 1. Counts pairs.size() `miller` probes + 1 `multi_miller`.
  [[nodiscard]] Fp2El multi_miller(std::span<const MillerPair> pairs) const;

  // Multi-pairing over preprocessed first arguments. pres[i] pairs with
  // qs[i]; slots with an empty trace (P at infinity) or q at infinity
  // contribute 1. All non-empty traces share one step structure (it depends
  // only on the group order), so a single index walks them in lockstep.
  [[nodiscard]] Fp2El multi_miller_pre(
      std::span<const PreprocessedPairing> pres,
      std::span<const AffinePoint> qs) const;

  // Final exponentiation z^{(p^2-1)/q}.
  [[nodiscard]] GtEl final_exp(const Fp2El& f) const;

  // x^h for unitary x, via the precomputed signed 4-bit recoding of
  // h = (p+1)/q (negative digits use conjugation). Exposed for the block
  // scan kernel, which runs the same digit schedule lane-parallel.
  [[nodiscard]] GtEl pow_unitary(const Fp2El& u) const;

  // Signed 4-bit digits of h, least-significant first, each in [-8, 8].
  [[nodiscard]] std::span<const std::int8_t> h_digits() const noexcept {
    return h_digits_;
  }

  // The one counting site: bumps the process-wide counters and the calling
  // thread's. External kernels (the SIMD block scan) that do pairing work
  // without routing through miller()/final_exp() report it here, which
  // keeps the cost model engine-invariant.
  void note_ops(std::uint64_t millers, std::uint64_t multi_millers,
                std::uint64_t final_exps) const noexcept;

 private:
  friend class PreprocessedPairing;

  // Jacobian doubling that also emits the tangent-line coefficients.
  JacPoint dbl_step(const JacPoint& t, LineCoeffs& line) const;
  // Mixed addition (t + p) emitting the chord-line coefficients.
  JacPoint add_step(const JacPoint& t, const AffinePoint& p,
                    LineCoeffs& line) const;
  // Evaluates a line at phi(Q).
  [[nodiscard]] Fp2El eval_line(const LineCoeffs& line,
                                const AffinePoint& q) const;

  Curve curve_;
  Fp2 fp2_;
  GtEl gt_gen_;
  // Signed 4-bit digits of h = (p+1)/q, least-significant first.
  std::vector<std::int8_t> h_digits_;

  mutable std::atomic<std::uint64_t> miller_count_{0};
  mutable std::atomic<std::uint64_t> multi_miller_count_{0};
  mutable std::atomic<std::uint64_t> final_exp_count_{0};
};

// The Miller-loop trace of a fixed first argument, with batch-normalized
// line coefficients (see NormLine).
class PreprocessedPairing {
 public:
  // e(P, q) for the fixed P.
  [[nodiscard]] GtEl pair_with(const AffinePoint& q) const;

  // Raw Miller value for the fixed P (no final exponentiation). With
  // normalized lines this differs from miller(P, q) by a subfield factor;
  // the difference vanishes under final_exp.
  [[nodiscard]] Fp2El miller_with(const AffinePoint& q) const;

  [[nodiscard]] std::size_t line_count() const noexcept {
    return lines_.size();
  }

  // Flattened step list: each Miller iteration contributes its doubling line
  // and, when the scalar bit is set, the addition line, in order. Empty when
  // the fixed P is the point at infinity.
  [[nodiscard]] std::span<const NormLine> lines() const noexcept {
    return lines_;
  }
  [[nodiscard]] const Pairing& parent() const noexcept { return *parent_; }

 private:
  friend class Pairing;
  PreprocessedPairing(const Pairing& parent, std::vector<NormLine> lines)
      : parent_(&parent), lines_(std::move(lines)) {}

  const Pairing* parent_;
  std::vector<NormLine> lines_;
};

}  // namespace apks
