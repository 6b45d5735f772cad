// Wire encodings for HPE objects.
//
// Group elements use the 65-byte compressed form and F_q scalars 20 bytes,
// matching the size accounting of the paper's Section VII (PK =
// 65[n0(n0-1)+3] B, ciphertext = 65(n0+1) B, etc. — our layouts add small
// explicit headers on top of the element payloads).
#pragma once

#include <vector>

#include "common/bytes.h"
#include "hpe/hpe.h"

namespace apks {

void write_fq(const FqField& fq, const Fq& v, ByteWriter& w);
[[nodiscard]] Fq read_fq(const FqField& fq, ByteReader& r);

// Every element decoder runs CompressedBatch's validation contract
// (ec/curve.h). The single-element readers decode a batch of one; the
// batch overloads queue the element and leave it incomplete until the
// caller's batch.finish(), so an object decoder takes all of its square
// roots in one lane batch. Whole-object decoders below do exactly that.
void write_point(const Curve& curve, const AffinePoint& pt, ByteWriter& w);
[[nodiscard]] AffinePoint read_point(const Curve& curve, ByteReader& r);
void read_point(ByteReader& r, CompressedBatch& batch, AffinePoint& out);

void write_gt(const Pairing& e, const GtEl& v, ByteWriter& w);
[[nodiscard]] GtEl read_gt(const Pairing& e, ByteReader& r);
void read_gt(ByteReader& r, CompressedBatch& batch, GtEl& out);

void write_gvec(const Curve& curve, const GVec& v, ByteWriter& w);
[[nodiscard]] GVec read_gvec(const Curve& curve, ByteReader& r);
// The returned vector's heap buffer holds the queued points: move it (never
// copy it) into place before batch.finish().
[[nodiscard]] GVec read_gvec(ByteReader& r, CompressedBatch& batch);

[[nodiscard]] std::vector<std::uint8_t> serialize_ciphertext(
    const Pairing& e, const HpeCiphertext& ct);
[[nodiscard]] HpeCiphertext deserialize_ciphertext(
    const Pairing& e, std::span<const std::uint8_t> data);

[[nodiscard]] std::vector<std::uint8_t> serialize_key(const Pairing& e,
                                                      const HpeKey& key);
[[nodiscard]] HpeKey deserialize_key(const Pairing& e,
                                     std::span<const std::uint8_t> data);

[[nodiscard]] std::vector<std::uint8_t> serialize_public_key(
    const Pairing& e, const HpePublicKey& pk);
[[nodiscard]] HpePublicKey deserialize_public_key(
    const Pairing& e, std::span<const std::uint8_t> data);

[[nodiscard]] std::vector<std::uint8_t> serialize_master_key(
    const Pairing& e, const HpeMasterKey& msk);
[[nodiscard]] HpeMasterKey deserialize_master_key(
    const Pairing& e, std::span<const std::uint8_t> data);

}  // namespace apks
