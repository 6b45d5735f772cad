#include "hpe/serialize.h"

#include <stdexcept>

namespace apks {

void write_fq(const FqField& fq, const Fq& v, ByteWriter& w) {
  std::array<std::uint8_t, 24> buf{};
  fq.to_int(v).to_bytes(buf);
  // The top 4 bytes of the 3-limb representation are always zero for a
  // 160-bit modulus; ship the 20 significant bytes, as the paper assumes.
  w.raw(std::span<const std::uint8_t>(buf.data() + 4, 20));
}

Fq read_fq(const FqField& fq, ByteReader& r) {
  const auto bytes = r.raw(20);
  const FqInt v = FqInt::from_bytes(bytes);
  if (v >= fq.modulus()) {
    throw std::invalid_argument("read_fq: scalar out of range");
  }
  return fq.from_int(v);
}

void write_point(const Curve& curve, const AffinePoint& pt, ByteWriter& w) {
  std::array<std::uint8_t, Curve::kCompressedSize> buf{};
  curve.serialize(pt, buf);
  w.raw(buf);
}

namespace {

std::span<const std::uint8_t, Curve::kCompressedSize> element_bytes(
    ByteReader& r) {
  return std::span<const std::uint8_t, Curve::kCompressedSize>(
      r.raw(Curve::kCompressedSize).data(), Curve::kCompressedSize);
}

}  // namespace

AffinePoint read_point(const Curve& curve, ByteReader& r) {
  return curve.deserialize(element_bytes(r));
}

void read_point(ByteReader& r, CompressedBatch& batch, AffinePoint& out) {
  batch.add_point(element_bytes(r), out);
}

void write_gt(const Pairing& e, const GtEl& v, ByteWriter& w) {
  std::array<std::uint8_t, Pairing::kGtCompressedSize> buf{};
  e.gt_serialize(v, buf);
  w.raw(buf);
}

GtEl read_gt(const Pairing& e, ByteReader& r) {
  return e.gt_deserialize(element_bytes(r));
}

void read_gt(ByteReader& r, CompressedBatch& batch, GtEl& out) {
  batch.add_unitary(element_bytes(r), out);
}

void write_gvec(const Curve& curve, const GVec& v, ByteWriter& w) {
  w.u32(static_cast<std::uint32_t>(v.size()));
  for (const auto& pt : v) write_point(curve, pt, w);
}

GVec read_gvec(ByteReader& r, CompressedBatch& batch) {
  const std::uint32_t n = r.u32();
  // Validate the claimed count against the bytes actually present before
  // allocating (hostile length prefixes must not drive allocations).
  if (n > r.remaining() / Curve::kCompressedSize) {
    throw std::invalid_argument("read_gvec: length field exceeds payload");
  }
  GVec v(n);
  for (AffinePoint& pt : v) read_point(r, batch, pt);
  return v;
}

GVec read_gvec(const Curve& curve, ByteReader& r) {
  CompressedBatch batch(curve);
  GVec v = read_gvec(r, batch);
  batch.finish();
  return v;
}

std::vector<std::uint8_t> serialize_ciphertext(const Pairing& e,
                                               const HpeCiphertext& ct) {
  ByteWriter w;
  write_gvec(e.curve(), ct.c1, w);
  write_gt(e, ct.c2, w);
  return w.take();
}

HpeCiphertext deserialize_ciphertext(const Pairing& e,
                                     std::span<const std::uint8_t> data) {
  ByteReader r(data);
  CompressedBatch batch(e.curve());
  HpeCiphertext ct;
  ct.c1 = read_gvec(r, batch);
  read_gt(r, batch, ct.c2);
  if (!r.done()) throw std::invalid_argument("ciphertext: trailing bytes");
  batch.finish();
  return ct;
}

std::vector<std::uint8_t> serialize_key(const Pairing& e, const HpeKey& key) {
  ByteWriter w;
  w.u32(static_cast<std::uint32_t>(key.level));
  write_gvec(e.curve(), key.dec, w);
  w.u32(static_cast<std::uint32_t>(key.ran.size()));
  for (const auto& v : key.ran) write_gvec(e.curve(), v, w);
  w.u32(static_cast<std::uint32_t>(key.del.size()));
  for (const auto& v : key.del) write_gvec(e.curve(), v, w);
  return w.take();
}

HpeKey deserialize_key(const Pairing& e, std::span<const std::uint8_t> data) {
  ByteReader r(data);
  CompressedBatch batch(e.curve());
  HpeKey key;
  key.level = r.u32();
  // Every honest key carries level+1 randomizer vectors, each at least one
  // point: a level field the payload cannot possibly back is corrupt (and
  // would otherwise only surface as an out-of-range index much later, at
  // delegation time).
  if (key.level >= r.remaining() / Curve::kCompressedSize) {
    throw std::invalid_argument("key: level field exceeds payload");
  }
  key.dec = read_gvec(r, batch);
  const std::uint32_t nran = r.u32();
  if (nran > r.remaining() / Curve::kCompressedSize) {
    throw std::invalid_argument("key: randomizer count exceeds payload");
  }
  for (std::uint32_t i = 0; i < nran; ++i) {
    key.ran.push_back(read_gvec(r, batch));
  }
  if (key.ran.size() != key.level + 1) {
    // Invariant of every issued key (gen_key and delegate both maintain
    // it); enforcing it here turns a delayed delegation failure into a
    // clean parse error.
    throw std::invalid_argument("key: randomizer count != level + 1");
  }
  const std::uint32_t ndel = r.u32();
  if (ndel > r.remaining() / Curve::kCompressedSize) {
    throw std::invalid_argument("key: delegation count exceeds payload");
  }
  for (std::uint32_t i = 0; i < ndel; ++i) {
    key.del.push_back(read_gvec(r, batch));
  }
  if (!r.done()) throw std::invalid_argument("key: trailing bytes");
  batch.finish();
  return key;
}

std::vector<std::uint8_t> serialize_public_key(const Pairing& e,
                                               const HpePublicKey& pk) {
  ByteWriter w;
  w.u32(static_cast<std::uint32_t>(pk.n));
  w.u32(static_cast<std::uint32_t>(pk.bhat.size()));
  for (const auto& v : pk.bhat) write_gvec(e.curve(), v, w);
  return w.take();
}

HpePublicKey deserialize_public_key(const Pairing& e,
                                    std::span<const std::uint8_t> data) {
  ByteReader r(data);
  CompressedBatch batch(e.curve());
  HpePublicKey pk;
  pk.n = r.u32();
  const std::uint32_t rows = r.u32();
  if (rows > r.remaining() / Curve::kCompressedSize) {
    throw std::invalid_argument("public key: row count exceeds payload");
  }
  for (std::uint32_t i = 0; i < rows; ++i) {
    pk.bhat.push_back(read_gvec(r, batch));
  }
  if (!r.done()) throw std::invalid_argument("public key: trailing bytes");
  batch.finish();
  return pk;
}

std::vector<std::uint8_t> serialize_master_key(const Pairing& e,
                                               const HpeMasterKey& msk) {
  ByteWriter w;
  const FqField& fq = e.fq();
  w.u32(static_cast<std::uint32_t>(msk.x.rows()));
  for (std::size_t i = 0; i < msk.x.rows(); ++i) {
    for (std::size_t j = 0; j < msk.x.cols(); ++j) {
      write_fq(fq, msk.x.at(i, j), w);
    }
  }
  w.u32(static_cast<std::uint32_t>(msk.bstar.size()));
  for (const auto& v : msk.bstar) write_gvec(e.curve(), v, w);
  return w.take();
}

HpeMasterKey deserialize_master_key(const Pairing& e,
                                    std::span<const std::uint8_t> data) {
  ByteReader r(data);
  CompressedBatch batch(e.curve());
  HpeMasterKey msk;
  const std::uint32_t n = r.u32();
  if (n > 4096 || static_cast<std::uint64_t>(n) * n * 20 > r.remaining()) {
    throw std::invalid_argument("master key: matrix size exceeds payload");
  }
  msk.x = MatrixFq(n, n, e.fq());
  for (std::uint32_t i = 0; i < n; ++i) {
    for (std::uint32_t j = 0; j < n; ++j) {
      msk.x.at(i, j) = read_fq(e.fq(), r);
    }
  }
  const std::uint32_t rows = r.u32();
  if (rows > r.remaining() / Curve::kCompressedSize) {
    throw std::invalid_argument("master key: row count exceeds payload");
  }
  for (std::uint32_t i = 0; i < rows; ++i) {
    msk.bstar.push_back(read_gvec(r, batch));
  }
  if (!r.done()) throw std::invalid_argument("master key: trailing bytes");
  batch.finish();
  return msk;
}

}  // namespace apks
