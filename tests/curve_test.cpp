// Group-law, scalar-multiplication and encoding tests for the type-A curve.
#include <gtest/gtest.h>

#include "ec/curve.h"
#include "math/fp_sqrt_batch.h"

namespace apks {
namespace {

class CurveTest : public ::testing::Test {
 protected:
  CurveTest() : curve_(default_type_a_params()), rng_("curve-test") {}
  Curve curve_;
  ChaChaRng rng_;
};

TEST_F(CurveTest, DefaultParamsValidate) {
  ChaChaRng rng("validate");
  EXPECT_NO_THROW(validate_params(default_type_a_params(), rng));
}

TEST_F(CurveTest, GeneratorOnCurveWithOrderQ) {
  EXPECT_TRUE(curve_.on_curve(curve_.generator()));
  EXPECT_FALSE(curve_.generator().inf);
  EXPECT_TRUE(curve_.mul(curve_.generator(), curve_.params().q).inf);
}

TEST_F(CurveTest, AdditionCommutes) {
  const auto p = curve_.random_point(rng_);
  const auto q = curve_.random_point(rng_);
  EXPECT_EQ(curve_.add(p, q), curve_.add(q, p));
}

TEST_F(CurveTest, AdditionAssociates) {
  const auto p = curve_.random_point(rng_);
  const auto q = curve_.random_point(rng_);
  const auto r = curve_.random_point(rng_);
  EXPECT_EQ(curve_.add(curve_.add(p, q), r), curve_.add(p, curve_.add(q, r)));
}

TEST_F(CurveTest, IdentityAndInverse) {
  const auto p = curve_.random_point(rng_);
  EXPECT_EQ(curve_.add(p, AffinePoint::infinity()), p);
  EXPECT_EQ(curve_.add(AffinePoint::infinity(), p), p);
  EXPECT_TRUE(curve_.add(p, curve_.neg(p)).inf);
}

TEST_F(CurveTest, DoubleMatchesAdd) {
  const auto p = curve_.random_point(rng_);
  EXPECT_EQ(curve_.dbl(p), curve_.add(p, p));
}

TEST_F(CurveTest, ScalarMulMatchesRepeatedAdd) {
  const auto p = curve_.random_point(rng_);
  AffinePoint acc = AffinePoint::infinity();
  for (std::uint64_t k = 0; k <= 20; ++k) {
    EXPECT_EQ(curve_.mul(p, FqInt{k}), acc) << "k=" << k;
    acc = curve_.add(acc, p);
  }
}

TEST_F(CurveTest, ScalarMulDistributes) {
  const auto p = curve_.random_point(rng_);
  const auto& fq = curve_.fq();
  for (int i = 0; i < 5; ++i) {
    const Fq a = fq.random(rng_);
    const Fq b = fq.random(rng_);
    // (a+b)P == aP + bP with scalars reduced mod q.
    const auto lhs = curve_.mul_fq(p, fq.add(a, b));
    const auto rhs = curve_.add(curve_.mul_fq(p, a), curve_.mul_fq(p, b));
    EXPECT_EQ(lhs, rhs);
  }
}

TEST_F(CurveTest, ScalarMulComposes) {
  const auto p = curve_.random_point(rng_);
  const auto& fq = curve_.fq();
  const Fq a = fq.random(rng_);
  const Fq b = fq.random(rng_);
  EXPECT_EQ(curve_.mul_fq(curve_.mul_fq(p, a), b),
            curve_.mul_fq(p, fq.mul(a, b)));
}

TEST_F(CurveTest, RandomPointsHaveOrderQ) {
  for (int i = 0; i < 3; ++i) {
    const auto p = curve_.random_point(rng_);
    EXPECT_TRUE(curve_.on_curve(p));
    EXPECT_FALSE(p.inf);
    EXPECT_TRUE(curve_.mul(p, curve_.params().q).inf);
  }
}

TEST_F(CurveTest, MsmMatchesNaive) {
  const auto& fq = curve_.fq();
  std::vector<AffinePoint> pts;
  std::vector<Fq> ks;
  for (int i = 0; i < 4; ++i) {
    pts.push_back(curve_.random_point(rng_));
    ks.push_back(fq.random(rng_));
  }
  AffinePoint expect = AffinePoint::infinity();
  for (std::size_t i = 0; i < pts.size(); ++i) {
    expect = curve_.add(expect, curve_.mul_fq(pts[i], ks[i]));
  }
  EXPECT_EQ(curve_.msm(pts, ks), expect);
}

TEST_F(CurveTest, MsmEmptyIsInfinity) {
  EXPECT_TRUE(curve_.msm({}, {}).inf);
}

TEST_F(CurveTest, MsmSizeMismatchThrows) {
  EXPECT_THROW((void)curve_.msm({curve_.generator()}, {}),
               std::invalid_argument);
}

TEST_F(CurveTest, HashToPointDeterministicOrderQ) {
  const auto p1 = curve_.hash_to_point("alice");
  const auto p2 = curve_.hash_to_point("alice");
  const auto p3 = curve_.hash_to_point("bob");
  EXPECT_EQ(p1, p2);
  EXPECT_NE(p1, p3);
  EXPECT_TRUE(curve_.on_curve(p1));
  EXPECT_TRUE(curve_.mul(p1, curve_.params().q).inf);
}

TEST_F(CurveTest, SerializeRoundTrip) {
  for (int i = 0; i < 5; ++i) {
    const auto p = curve_.random_point(rng_);
    std::array<std::uint8_t, Curve::kCompressedSize> buf{};
    curve_.serialize(p, buf);
    EXPECT_EQ(curve_.deserialize(buf), p);
  }
  // Infinity round-trips too.
  std::array<std::uint8_t, Curve::kCompressedSize> buf{};
  curve_.serialize(AffinePoint::infinity(), buf);
  EXPECT_TRUE(curve_.deserialize(buf).inf);
}

TEST_F(CurveTest, SerializedSizeMatchesPaper) {
  // The paper's size accounting uses 65-byte compressed group elements.
  EXPECT_EQ(Curve::kCompressedSize, 65u);
}

// The lane-batched square root against the scalar reference
// (PrimeField::sqrt), on every engine this machine runs, over squares,
// non-residues, zero and +-1, at every batch length up to two full blocks
// plus a partial one.
TEST_F(CurveTest, SqrtBatchMatchesScalarSqrtOnEveryEngine) {
  const FpField& fp = curve_.fp();
  std::vector<Fp> values;
  for (int i = 0; i < 24; ++i) {
    const Fp r = fp.random(rng_);
    values.push_back((i % 3 == 0) ? fp.sqr(r) : r);
  }
  values[5] = fp.zero();
  values[9] = fp.one();
  values[13] = fp.neg(fp.one());  // -1: a non-residue for p = 3 (mod 4)
  for (const SimdLevel level :
       {SimdLevel::kScalar, SimdLevel::kAvx2, SimdLevel::kAvx512}) {
    if (level > simd_level_detected()) continue;
    const FpSqrtBatch batch(fp, level);
    for (std::size_t n = 1; n <= values.size(); ++n) {
      const std::span<const Fp> in(values.data(), n);
      std::vector<Fp> roots(n);
      std::vector<std::uint8_t> ok(n, 2);
      batch.run(in, roots, ok);
      for (std::size_t i = 0; i < n; ++i) {
        Fp want;
        const bool square = fp.sqrt(in[i], want);
        ASSERT_EQ(ok[i] != 0, square)
            << batch.engine_name() << " n=" << n << " i=" << i;
        if (square) {
          EXPECT_EQ(roots[i], want)
              << batch.engine_name() << " n=" << n << " i=" << i;
        }
      }
    }
  }
}

TEST_F(CurveTest, DeserializeRejectsGarbage) {
  std::array<std::uint8_t, Curve::kCompressedSize> buf{};
  buf[0] = 9;  // invalid tag
  EXPECT_THROW((void)curve_.deserialize(buf), std::invalid_argument);
  // x >= p
  buf[0] = 2;
  for (std::size_t i = 1; i < buf.size(); ++i) buf[i] = 0xFF;
  EXPECT_THROW((void)curve_.deserialize(buf), std::invalid_argument);
}


TEST_F(CurveTest, JacAddMatchesMixed) {
  const auto p = curve_.random_point(rng_);
  const auto q = curve_.random_point(rng_);
  // Randomize Z coordinates by scaling.
  const auto jp = curve_.to_jac(p);
  const auto jq = curve_.to_jac(q);
  EXPECT_EQ(curve_.to_affine(curve_.jac_add(jp, jq)), curve_.add(p, q));
  // Doubling case and identity cases.
  EXPECT_EQ(curve_.to_affine(curve_.jac_add(jp, jp)), curve_.dbl(p));
  const JacPoint inf = curve_.to_jac(AffinePoint::infinity());
  EXPECT_EQ(curve_.to_affine(curve_.jac_add(jp, inf)), p);
  EXPECT_EQ(curve_.to_affine(curve_.jac_add(inf, jq)), q);
  // Inverse case.
  const auto jnq = curve_.to_jac(curve_.neg(q));
  EXPECT_TRUE(curve_.jac_add(jq, jnq).is_infinity());
}

TEST_F(CurveTest, BatchNormalizeMatchesToAffine) {
  std::vector<JacPoint> pts;
  pts.push_back(curve_.to_jac(AffinePoint::infinity()));
  for (int i = 0; i < 5; ++i) {
    auto j = curve_.to_jac(curve_.random_point(rng_));
    // Un-normalize: scale by a random Z.
    const Fp z = curve_.fp().random(rng_);
    if (!z.is_zero()) {
      const Fp z2 = curve_.fp().sqr(z);
      j = {curve_.fp().mul(j.X, z2),
           curve_.fp().mul(j.Y, curve_.fp().mul(z2, z)),
           curve_.fp().mul(j.Z, z)};
    }
    pts.push_back(j);
  }
  const auto affine = curve_.batch_normalize(pts);
  ASSERT_EQ(affine.size(), pts.size());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    EXPECT_EQ(affine[i], curve_.to_affine(pts[i])) << i;
  }
}

TEST_F(CurveTest, MulBaseMatchesGenericLadder) {
  const auto& fq = curve_.fq();
  EXPECT_TRUE(curve_.mul_base(FqInt::zero()).inf);
  EXPECT_EQ(curve_.mul_base(FqInt{1}), curve_.generator());
  for (int i = 0; i < 10; ++i) {
    const Fq k = fq.random(rng_);
    EXPECT_EQ(curve_.mul_base_fq(k), curve_.mul_fq(curve_.generator(), k));
  }
  // Small scalars exercise single-window lookups.
  for (std::uint64_t k : {2ull, 255ull, 256ull, 65535ull}) {
    EXPECT_EQ(curve_.mul_base(FqInt{k}), curve_.mul(curve_.generator(), FqInt{k}))
        << k;
  }
}

TEST_F(CurveTest, GenerateFreshParamsSmall) {
  // Full generation is exercised by tools/gen_params; here make sure a
  // fresh (deterministic) generation validates end to end.
  ChaChaRng rng("fresh-params");
  const auto params = generate_type_a(rng);
  ChaChaRng rng2("fresh-params-check");
  EXPECT_NO_THROW(validate_params(params, rng2));
  EXPECT_NE(params.q, default_type_a_params().q);
}

TEST_F(CurveTest, RejectsBadGenerator) {
  auto params = default_type_a_params();
  params.gy = params.gx;  // almost surely not on curve
  EXPECT_THROW(Curve c(params), std::invalid_argument);
}

}  // namespace
}  // namespace apks
