// Round-trip tests for HPE wire encodings, plus checks that serialized
// object sizes follow the paper's element-count formulas.
#include <gtest/gtest.h>

#include <array>
#include <optional>

#include "hpe/serialize.h"

namespace apks {
namespace {

class SerializeTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kN = 3;
  SerializeTest()
      : e_(default_type_a_params()), hpe_(e_, kN), rng_("serialize-test") {
    hpe_.setup(rng_, pk_, msk_);
  }

  std::vector<Fq> random_vec() {
    std::vector<Fq> v(kN);
    for (auto& c : v) c = e_.fq().random(rng_);
    return v;
  }

  Pairing e_;
  Hpe hpe_;
  ChaChaRng rng_;
  HpePublicKey pk_;
  HpeMasterKey msk_;
};

TEST_F(SerializeTest, FqRoundTrip) {
  for (int i = 0; i < 20; ++i) {
    const Fq v = e_.fq().random(rng_);
    ByteWriter w;
    write_fq(e_.fq(), v, w);
    EXPECT_EQ(w.size(), 20u);  // the paper's 20-byte scalars
    const auto data = w.take();
    ByteReader r(data);
    EXPECT_EQ(read_fq(e_.fq(), r), v);
  }
}

TEST_F(SerializeTest, PointRoundTripIncludingInfinity) {
  ByteWriter w;
  write_point(e_.curve(), AffinePoint::infinity(), w);
  const auto p = e_.curve().random_point(rng_);
  write_point(e_.curve(), p, w);
  const auto data = w.take();
  ByteReader r(data);
  EXPECT_TRUE(read_point(e_.curve(), r).inf);
  EXPECT_EQ(read_point(e_.curve(), r), p);
}

TEST_F(SerializeTest, CiphertextRoundTripAndSize) {
  const auto ct = hpe_.encrypt(pk_, random_vec(), e_.gt_random(rng_), rng_);
  const auto data = serialize_ciphertext(e_, ct);
  const auto back = deserialize_ciphertext(e_, data);
  EXPECT_EQ(back.c1, ct.c1);
  EXPECT_EQ(back.c2, ct.c2);
  // Paper: 65(n0 + 1) payload bytes; we add a 4-byte length header.
  const std::size_t n0 = kN + 3;
  EXPECT_EQ(data.size(), 65 * (n0 + 1) + 4);
}

TEST_F(SerializeTest, KeyRoundTripAndLevelGrowth) {
  const auto v = random_vec();
  const auto key = hpe_.gen_key(msk_, v, rng_);
  const auto data = serialize_key(e_, key);
  const auto back = deserialize_key(e_, data);
  EXPECT_EQ(back.level, key.level);
  EXPECT_EQ(back.dec, key.dec);
  EXPECT_EQ(back.ran.size(), key.ran.size());
  EXPECT_EQ(back.del.size(), key.del.size());
  for (std::size_t i = 0; i < key.del.size(); ++i) {
    EXPECT_EQ(back.del[i], key.del[i]);
  }

  // A delegated key is strictly larger (one more randomizer).
  const auto child = hpe_.delegate(key, random_vec(), rng_);
  EXPECT_GT(serialize_key(e_, child).size(), data.size());
}

TEST_F(SerializeTest, DeserializedKeyStillDecrypts) {
  // v = (1, t, 0) ⊥ x = (-t, 1, 0).
  const Fq t = e_.fq().random(rng_);
  std::vector<Fq> v{e_.fq().one(), t, e_.fq().zero()};
  std::vector<Fq> x{e_.fq().neg(t), e_.fq().one(), e_.fq().zero()};
  const auto key = hpe_.gen_key(msk_, v, rng_);
  const GtEl msg = e_.gt_random(rng_);
  const auto ct = hpe_.encrypt(pk_, x, msg, rng_);
  const auto key2 = deserialize_key(e_, serialize_key(e_, key));
  const auto ct2 = deserialize_ciphertext(e_, serialize_ciphertext(e_, ct));
  EXPECT_EQ(hpe_.decrypt(ct2, key2), msg);
}

TEST_F(SerializeTest, PublicKeyRoundTrip) {
  const auto data = serialize_public_key(e_, pk_);
  const auto back = deserialize_public_key(e_, data);
  EXPECT_EQ(back.n, pk_.n);
  ASSERT_EQ(back.bhat.size(), pk_.bhat.size());
  for (std::size_t i = 0; i < pk_.bhat.size(); ++i) {
    EXPECT_EQ(back.bhat[i], pk_.bhat[i]);
  }
}

TEST_F(SerializeTest, MasterKeyRoundTrip) {
  const auto data = serialize_master_key(e_, msk_);
  const auto back = deserialize_master_key(e_, data);
  EXPECT_EQ(back.x, msk_.x);
  ASSERT_EQ(back.bstar.size(), msk_.bstar.size());
  for (std::size_t i = 0; i < msk_.bstar.size(); ++i) {
    EXPECT_EQ(back.bstar[i], msk_.bstar[i]);
  }
}

TEST_F(SerializeTest, TruncatedInputsRejected) {
  const auto ct = hpe_.encrypt(pk_, random_vec(), e_.gt_random(rng_), rng_);
  auto data = serialize_ciphertext(e_, ct);
  data.pop_back();
  EXPECT_THROW((void)deserialize_ciphertext(e_, data), std::out_of_range);
  data.push_back(0);
  data.push_back(0);  // trailing garbage
  EXPECT_THROW((void)deserialize_ciphertext(e_, data), std::invalid_argument);
}

// ---- Batch decoder vs the element-by-element scalar reference ----------

using Enc = std::array<std::uint8_t, Curve::kCompressedSize>;

// The decoder the lane batch replaced, kept as the reference: one scalar
// PrimeField::sqrt per element, each check in stream order.
std::optional<AffinePoint> reference_point(const Curve& c, const Enc& in) {
  const FpField& fp = c.fp();
  if (in[0] == 0) {
    for (std::size_t i = 1; i < in.size(); ++i) {
      if (in[i] != 0) return std::nullopt;
    }
    return AffinePoint::infinity();
  }
  if (in[0] != 2 && in[0] != 3) return std::nullopt;
  const FpInt xi =
      FpInt::from_bytes(std::span<const std::uint8_t>(in.data() + 1, 64));
  if (xi >= fp.modulus()) return std::nullopt;
  const Fp x = fp.from_int(xi);
  Fp y;
  if (!fp.sqrt(c.rhs(x), y)) return std::nullopt;
  if ((fp.to_int(y).w[0] & 1) != (in[0] == 3 ? 1u : 0u)) y = fp.neg(y);
  return AffinePoint{x, y, false};
}

std::optional<GtEl> reference_gt(const FpField& fp, const Enc& in) {
  if (in[0] != 2 && in[0] != 3) return std::nullopt;
  const FpInt ai =
      FpInt::from_bytes(std::span<const std::uint8_t>(in.data() + 1, 64));
  if (ai >= fp.modulus()) return std::nullopt;
  const Fp a = fp.from_int(ai);
  Fp b;
  if (!fp.sqrt(fp.sub(fp.one(), fp.sqr(a)), b)) return std::nullopt;
  if ((fp.to_int(b).w[0] & 1) != (in[0] == 3 ? 1u : 0u)) b = fp.neg(b);
  return GtEl{a, b};
}

Enc with_coordinate(std::uint8_t tag, const FpInt& v) {
  Enc out{};
  out[0] = tag;
  v.to_bytes(std::span<std::uint8_t, 64>(out.data() + 1, 64));
  return out;
}

// One element of a mixed batch: a point or a GT element.
struct Element {
  bool gt = false;
  Enc bytes{};
};

// Decodes `elems` as ONE batch; nullopt when the batch rejects.
struct Decoded {
  std::vector<AffinePoint> points;
  std::vector<GtEl> gts;
};
std::optional<Decoded> batch_decode(const Pairing& e,
                                    const std::vector<Element>& elems) {
  Decoded out;
  out.points.resize(elems.size());
  out.gts.resize(elems.size());
  try {
    CompressedBatch batch(e.curve());
    for (std::size_t i = 0; i < elems.size(); ++i) {
      if (elems[i].gt) {
        batch.add_unitary(elems[i].bytes, out.gts[i]);
      } else {
        batch.add_point(elems[i].bytes, out.points[i]);
      }
    }
    batch.finish();
  } catch (const std::invalid_argument&) {
    return std::nullopt;
  }
  return out;
}

// Checks a batch against the reference: it must reject exactly when some
// element is rejected element by element, and otherwise decode to the
// reference's values, which must re-serialize to the input bytes.
void expect_batch_matches_reference(const Pairing& e,
                                    const std::vector<Element>& elems,
                                    const std::string& label) {
  const std::optional<Decoded> got = batch_decode(e, elems);
  bool all_ok = true;
  for (const Element& el : elems) {
    all_ok = all_ok && (el.gt ? reference_gt(e.fp(), el.bytes).has_value()
                              : reference_point(e.curve(), el.bytes)
                                    .has_value());
  }
  ASSERT_EQ(got.has_value(), all_ok) << label;
  if (!got) return;
  for (std::size_t i = 0; i < elems.size(); ++i) {
    Enc again{};
    if (elems[i].gt) {
      EXPECT_EQ(got->gts[i], *reference_gt(e.fp(), elems[i].bytes)) << label;
      e.gt_serialize(got->gts[i], again);
    } else {
      EXPECT_EQ(got->points[i], *reference_point(e.curve(), elems[i].bytes))
          << label;
      e.curve().serialize(got->points[i], again);
    }
    EXPECT_EQ(again, elems[i].bytes) << label << " element " << i;
  }
}

class BatchDecodeTest : public SerializeTest {
 protected:
  Element valid_point() {
    Element el;
    e_.curve().serialize(e_.curve().random_point(rng_), el.bytes);
    return el;
  }
  Element valid_gt() {
    Element el;
    el.gt = true;
    e_.gt_serialize(e_.gt_random(rng_), el.bytes);
    return el;
  }
  // An x < p whose x^3 + x is a non-residue (so no point has it).
  Element off_curve_point() {
    for (;;) {
      const Fp x = e_.fp().random(rng_);
      Fp y;
      if (e_.fp().sqrt(e_.curve().rhs(x), y)) continue;
      return {false, with_coordinate(2, e_.fp().to_int(x))};
    }
  }
  // An a < p whose 1 - a^2 is a non-residue (no unitary element has it).
  Element non_unitary_gt() {
    const FpField& fp = e_.fp();
    for (;;) {
      const Fp a = fp.random(rng_);
      Fp b;
      if (fp.sqrt(fp.sub(fp.one(), fp.sqr(a)), b)) continue;
      return {true, with_coordinate(3, fp.to_int(a))};
    }
  }
  // Every hostile shape, of the given element kind.
  std::vector<std::pair<std::string, Element>> hostile(bool gt) {
    std::vector<std::pair<std::string, Element>> out;
    const FpInt& p = e_.fp().modulus();
    out.emplace_back("x = p", Element{gt, with_coordinate(2, p)});
    Enc ones{};
    ones.fill(0xFF);
    ones[0] = 3;
    out.emplace_back("x = 2^512 - 1", Element{gt, ones});
    for (const int tag : {1, 4, 0x82, 0xFF}) {
      Element bad = gt ? valid_gt() : valid_point();
      bad.bytes[0] = static_cast<std::uint8_t>(tag);
      out.emplace_back("tag " + std::to_string(tag), bad);
    }
    if (gt) {
      Element zero_tag = valid_gt();
      zero_tag.bytes[0] = 0;
      out.emplace_back("gt tag 0", zero_tag);
      out.emplace_back("non-unitary", non_unitary_gt());
    } else {
      Element dirty{};
      dirty.bytes[40] = 1;
      out.emplace_back("dirty infinity", dirty);
      Element dirty_last{};
      dirty_last.bytes[64] = 0x80;
      out.emplace_back("dirty infinity (last byte)", dirty_last);
      out.emplace_back("off-curve x", off_curve_point());
    }
    return out;
  }
};

TEST_F(BatchDecodeTest, RandomEncodingsMatchScalarReference) {
  // Random 65-byte encodings: mostly in-range coordinates with a valid tag
  // (about half of them land on the curve / are unitary), plus raw random
  // tags and bodies.
  std::vector<Element> pool;
  for (int i = 0; i < 160; ++i) {
    Element el;
    el.gt = (i % 4 == 3);
    const std::uint64_t pick = rng_.next_u64();
    if (pick % 8 == 0) {
      rng_.fill(el.bytes);
    } else {
      el.bytes = with_coordinate(static_cast<std::uint8_t>(2 + (pick & 1)),
                                 e_.fp().to_int(e_.fp().random(rng_)));
      if (!el.gt && pick % 16 == 1) el.bytes = Enc{};  // infinity
    }
    pool.push_back(el);
  }
  // Batches of one: the per-element entry points agree with the reference.
  for (std::size_t i = 0; i < pool.size(); ++i) {
    expect_batch_matches_reference(e_, {pool[i]}, "single " + std::to_string(i));
    if (pool[i].gt) {
      const auto want = reference_gt(e_.fp(), pool[i].bytes);
      if (want) {
        EXPECT_EQ(e_.gt_deserialize(pool[i].bytes), *want);
      } else {
        EXPECT_THROW((void)e_.gt_deserialize(pool[i].bytes),
                     std::invalid_argument);
      }
    } else {
      const auto want = reference_point(e_.curve(), pool[i].bytes);
      if (want) {
        EXPECT_EQ(e_.curve().deserialize(pool[i].bytes), *want);
      } else {
        EXPECT_THROW((void)e_.curve().deserialize(pool[i].bytes),
                     std::invalid_argument);
      }
    }
  }
  // Multi-element batches of every length up to two blocks plus one, over
  // the same pool: the batch rejects iff some element does.
  std::size_t at = 0;
  for (std::size_t len = 1; len <= 17; ++len) {
    std::vector<Element> group;
    for (std::size_t k = 0; k < len; ++k) {
      group.push_back(pool[at++ % pool.size()]);
    }
    expect_batch_matches_reference(e_, group, "len " + std::to_string(len));
  }
}

TEST_F(BatchDecodeTest, OneBadElementAtEveryLanePositionIsRejected) {
  // A 16-element mixed batch (two full 8-wide lane blocks): points, one
  // infinity, GT elements.
  std::vector<Element> good;
  for (std::size_t i = 0; i < 16; ++i) {
    good.push_back(i % 5 == 4 ? valid_gt() : valid_point());
  }
  good[6] = Element{};  // canonical infinity
  expect_batch_matches_reference(e_, good, "all valid");
  ASSERT_TRUE(batch_decode(e_, good).has_value());

  for (const bool gt : {false, true}) {
    for (const auto& [what, bad] : hostile(gt)) {
      for (std::size_t pos = 0; pos < good.size(); ++pos) {
        std::vector<Element> batch = good;
        batch[pos] = bad;
        const std::string label = what + " at " + std::to_string(pos);
        EXPECT_FALSE(batch_decode(e_, batch).has_value()) << label;
        expect_batch_matches_reference(e_, batch, label);
      }
    }
  }
}

TEST_F(BatchDecodeTest, CiphertextRejectsACorruptElementAnywhere) {
  const auto ct = hpe_.encrypt(pk_, random_vec(), e_.gt_random(rng_), rng_);
  const std::vector<std::uint8_t> good = serialize_ciphertext(e_, ct);
  EXPECT_EQ(serialize_ciphertext(e_, deserialize_ciphertext(e_, good)), good);
  // Layout: u32 count, count points, one GT element.
  const std::size_t points = ct.c1.size();
  for (std::size_t el = 0; el <= points; ++el) {
    const bool gt = el == points;
    const Element bad = gt ? non_unitary_gt() : off_curve_point();
    std::vector<std::uint8_t> data = good;
    std::copy(bad.bytes.begin(), bad.bytes.end(),
              data.begin() + static_cast<std::ptrdiff_t>(
                                 4 + el * Curve::kCompressedSize));
    EXPECT_THROW((void)deserialize_ciphertext(e_, data),
                 std::invalid_argument)
        << "element " << el;
  }
}

}  // namespace
}  // namespace apks
