// Batched square roots in the 512-bit pairing base field (p = 3 mod 4).
//
// Point and GT decompression (ec/curve.h CompressedBatch) spends almost all
// of its time in one fixed-exponent power per element, r = a^((p+1)/4).
// FpSqrtBatch runs that power W elements at a time through an FpLaneEngine:
// a fixed 4-bit window over the exponent, built only from the engine's
// lanewise mul (the exponent is the same for every lane, so each window
// step multiplies by the same table row in all lanes). Each root is then
// checked lanewise, r^2 == a, so a non-residue is reported per element.
//
// Results are bit-identical to PrimeField::sqrt on every engine (the
// engines' canonical-residue contract, math/fp_lanes.h). On the scalar
// level the batch calls PrimeField::sqrt per element directly: the scalar
// lane engine would run the same per-lane multiplications, plus idle
// lanes for a partial block.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "math/fp_lanes.h"

namespace apks {

class FpSqrtBatch {
 public:
  // `level` pins the lane engine (falling back as make_fp_lane_engine
  // does); the one-argument form follows the process-wide simd_level().
  FpSqrtBatch(const LaneField& field, SimdLevel level);
  explicit FpSqrtBatch(const LaneField& field);

  // For every i: roots[i] = a[i]^((p+1)/4) and ok[i] = (roots[i]^2 ==
  // a[i]), i.e. whether a[i] is a square (zero is: its root is zero). When
  // ok[i] is 0, roots[i] is unspecified. All spans have a.size() entries;
  // values are Montgomery-form field elements.
  void run(std::span<const LaneFp> a, std::span<LaneFp> roots,
           std::span<std::uint8_t> ok) const;

  // The engine the batch runs on ("scalar", "avx2", "avx512").
  [[nodiscard]] const char* engine_name() const noexcept;

 private:
  const LaneField* fp_;
  std::unique_ptr<FpLaneEngine> engine_;  // null on the scalar level
  // (p+1)/4 in 4-bit digits, most significant (nonzero) digit first.
  std::vector<std::uint8_t> digits_;
};

}  // namespace apks
