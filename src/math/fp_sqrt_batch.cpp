#include "math/fp_sqrt_batch.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace apks {

FpSqrtBatch::FpSqrtBatch(const LaneField& field, SimdLevel level)
    : fp_(&field) {
  const LaneFp& p = field.modulus();
  assert(p.w[0] % 4 == 3);
  if (level != SimdLevel::kScalar) {
    engine_ = make_fp_lane_engine(field, level);
    if (engine_->level() == SimdLevel::kScalar) engine_.reset();
  }
  const LaneFp e = (p - LaneFp{1}).shr(2) + LaneFp{1};  // (p+1)/4
  for (std::size_t i = (e.bit_length() + 3) / 4; i-- > 0;) {
    std::uint8_t digit = 0;
    for (std::size_t j = 4; j-- > 0;) {
      digit = static_cast<std::uint8_t>((digit << 1) | (e.bit(4 * i + j) ? 1 : 0));
    }
    digits_.push_back(digit);
  }
}

FpSqrtBatch::FpSqrtBatch(const LaneField& field)
    : FpSqrtBatch(field, simd_level()) {}

const char* FpSqrtBatch::engine_name() const noexcept {
  return engine_ ? engine_->name() : "scalar";
}

void FpSqrtBatch::run(std::span<const LaneFp> a, std::span<LaneFp> roots,
                      std::span<std::uint8_t> ok) const {
  if (roots.size() != a.size() || ok.size() != a.size()) {
    throw std::invalid_argument("FpSqrtBatch::run: span sizes differ");
  }
  if (!engine_) {
    for (std::size_t i = 0; i < a.size(); ++i) {
      ok[i] = fp_->sqrt(a[i], roots[i]) ? 1 : 0;
    }
    return;
  }
  const FpLaneEngine& eng = *engine_;
  const std::size_t w = eng.width();
  FpLaneVec table[16];  // table[k] = a^k lanewise, k >= 1
  FpLaneVec acc;
  LaneFp squares[8];
  for (std::size_t base = 0; base < a.size(); base += w) {
    const std::size_t n = std::min(w, a.size() - base);
    eng.load(table[1], a.data() + base, n);
    for (std::size_t k = 2; k < 16; ++k) {
      eng.mul(table[k], table[k - 1], table[1]);
    }
    acc = table[digits_[0]];
    for (std::size_t d = 1; d < digits_.size(); ++d) {
      for (int s = 0; s < 4; ++s) eng.mul(acc, acc, acc);
      if (digits_[d] != 0) eng.mul(acc, acc, table[digits_[d]]);
    }
    eng.store(roots.data() + base, acc, n);
    eng.mul(acc, acc, acc);
    eng.store(squares, acc, n);
    for (std::size_t l = 0; l < n; ++l) {
      ok[base + l] = squares[l] == a[base + l] ? 1 : 0;
    }
  }
}

}  // namespace apks
