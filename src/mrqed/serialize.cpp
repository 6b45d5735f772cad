#include "mrqed/serialize.h"

#include <stdexcept>

#include "hpe/serialize.h"

namespace apks {

namespace {

void write_aibe_ct(const Pairing& e, const AibeCiphertext& ct,
                   ByteWriter& w) {
  write_gt(e, ct.cprime, w);
  for (const auto* pt : {&ct.c0, &ct.c1, &ct.c2, &ct.c3, &ct.c4}) {
    write_point(e.curve(), *pt, w);
  }
}

// The batch readers queue their elements into the caller's batch (see
// hpe/serialize.h); `ct`/`key` must stay in place until batch.finish().
void read_aibe_ct(ByteReader& r, CompressedBatch& batch, AibeCiphertext& ct) {
  read_gt(r, batch, ct.cprime);
  for (auto* pt : {&ct.c0, &ct.c1, &ct.c2, &ct.c3, &ct.c4}) {
    read_point(r, batch, *pt);
  }
}

void write_aibe_key(const Pairing& e, const AibeKey& key, ByteWriter& w) {
  for (const auto* pt : {&key.d0, &key.d1, &key.d2, &key.d3, &key.d4}) {
    write_point(e.curve(), *pt, w);
  }
}

void read_aibe_key(ByteReader& r, CompressedBatch& batch, AibeKey& key) {
  for (auto* pt : {&key.d0, &key.d1, &key.d2, &key.d3, &key.d4}) {
    read_point(r, batch, *pt);
  }
}

}  // namespace

std::vector<std::uint8_t> serialize_mrqed_ciphertext(
    const Pairing& e, const MrqedCiphertext& ct) {
  ByteWriter w;
  w.u32(static_cast<std::uint32_t>(ct.dims.size()));
  for (const auto& dim : ct.dims) {
    w.u32(static_cast<std::uint32_t>(dim.size()));
    for (const auto& node : dim) {
      write_aibe_ct(e, node.check, w);
      write_aibe_ct(e, node.share, w);
    }
  }
  return w.take();
}

MrqedCiphertext deserialize_mrqed_ciphertext(
    const Pairing& e, std::span<const std::uint8_t> data) {
  ByteReader r(data);
  CompressedBatch batch(e.curve());
  MrqedCiphertext ct;
  const std::uint32_t dims = r.u32();
  if (dims > r.remaining()) {
    throw std::invalid_argument("mrqed ciphertext: dim count exceeds payload");
  }
  ct.dims.resize(dims);
  for (auto& dim : ct.dims) {
    const std::uint32_t nodes = r.u32();
    if (nodes > r.remaining() / (2 * 6 * 65)) {
      throw std::invalid_argument("mrqed ciphertext: node count bomb");
    }
    dim.resize(nodes);
    for (MrqedCiphertext::NodeCt& node : dim) {
      read_aibe_ct(r, batch, node.check);
      read_aibe_ct(r, batch, node.share);
    }
  }
  if (!r.done()) {
    throw std::invalid_argument("mrqed ciphertext: trailing bytes");
  }
  batch.finish();
  return ct;
}

std::vector<std::uint8_t> serialize_mrqed_key(const Pairing& e,
                                              const MrqedKey& key) {
  ByteWriter w;
  w.u32(static_cast<std::uint32_t>(key.dims.size()));
  for (const auto& dim : key.dims) {
    w.u32(static_cast<std::uint32_t>(dim.size()));
    for (const auto& node : dim) {
      w.u32(static_cast<std::uint32_t>(node.node.level));
      w.u64(node.node.index);
      write_aibe_key(e, node.check, w);
      write_aibe_key(e, node.share, w);
    }
  }
  return w.take();
}

MrqedKey deserialize_mrqed_key(const Pairing& e,
                               std::span<const std::uint8_t> data) {
  ByteReader r(data);
  CompressedBatch batch(e.curve());
  MrqedKey key;
  const std::uint32_t dims = r.u32();
  if (dims > r.remaining()) {
    throw std::invalid_argument("mrqed key: dim count exceeds payload");
  }
  key.dims.resize(dims);
  for (auto& dim : key.dims) {
    const std::uint32_t nodes = r.u32();
    if (nodes > r.remaining() / (2 * 5 * 65)) {
      throw std::invalid_argument("mrqed key: node count bomb");
    }
    dim.resize(nodes);
    for (MrqedKey::NodeKey& node : dim) {
      node.node.level = r.u32();
      node.node.index = r.u64();
      read_aibe_key(r, batch, node.check);
      read_aibe_key(r, batch, node.share);
    }
  }
  if (!r.done()) throw std::invalid_argument("mrqed key: trailing bytes");
  batch.finish();
  return key;
}

std::vector<std::uint8_t> serialize_mrqed_public_key(
    const Pairing& e, const MrqedPublicKey& pk) {
  ByteWriter w;
  write_gt(e, pk.aibe.omega, w);
  for (const auto* pt :
       {&pk.aibe.v1, &pk.aibe.v2, &pk.aibe.v3, &pk.aibe.v4}) {
    write_point(e.curve(), *pt, w);
  }
  w.u32(static_cast<std::uint32_t>(pk.bases.size()));
  for (const auto& dim : pk.bases) {
    w.u32(static_cast<std::uint32_t>(dim.size()));
    for (const auto& base : dim) {
      write_point(e.curve(), base.g0, w);
      write_point(e.curve(), base.g1, w);
    }
  }
  return w.take();
}

MrqedPublicKey deserialize_mrqed_public_key(
    const Pairing& e, std::span<const std::uint8_t> data) {
  ByteReader r(data);
  CompressedBatch batch(e.curve());
  MrqedPublicKey pk;
  read_gt(r, batch, pk.aibe.omega);
  for (auto* pt : {&pk.aibe.v1, &pk.aibe.v2, &pk.aibe.v3, &pk.aibe.v4}) {
    read_point(r, batch, *pt);
  }
  const std::uint32_t dims = r.u32();
  if (dims > r.remaining()) {
    throw std::invalid_argument("mrqed public key: dim count exceeds payload");
  }
  pk.bases.resize(dims);
  for (auto& dim : pk.bases) {
    const std::uint32_t levels = r.u32();
    if (levels > r.remaining() / (2 * 65)) {
      throw std::invalid_argument("mrqed public key: level count bomb");
    }
    dim.resize(levels);
    for (AibeIdBase& base : dim) {
      read_point(r, batch, base.g0);
      read_point(r, batch, base.g1);
    }
  }
  if (!r.done()) {
    throw std::invalid_argument("mrqed public key: trailing bytes");
  }
  batch.finish();
  return pk;
}

std::vector<std::uint8_t> serialize_mrqed_master_key(
    const Pairing& e, const MrqedMasterKey& msk) {
  ByteWriter w;
  for (const auto* s : {&msk.aibe.w, &msk.aibe.t1, &msk.aibe.t2,
                        &msk.aibe.t3, &msk.aibe.t4}) {
    write_fq(e.fq(), *s, w);
  }
  return w.take();
}

MrqedMasterKey deserialize_mrqed_master_key(
    const Pairing& e, std::span<const std::uint8_t> data) {
  ByteReader r(data);
  MrqedMasterKey msk;
  for (auto* s : {&msk.aibe.w, &msk.aibe.t1, &msk.aibe.t2, &msk.aibe.t3,
                  &msk.aibe.t4}) {
    *s = read_fq(e.fq(), r);
  }
  if (!r.done()) {
    throw std::invalid_argument("mrqed master key: trailing bytes");
  }
  return msk;
}

}  // namespace apks
