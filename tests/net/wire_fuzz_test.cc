// Fixed-seed mutation fuzzing of the wire decoders, complementing the
// example-based cases in wire_test.cc. The server's event loop runs every
// byte a client sends through DecodeHeader, VerifyPayload and one
// Decode*Request; clients run every byte a server sends through the
// Decode*Response family. Starting from valid encodings, each input is
// byte-flipped, truncated, extended, or has a hostile length written into
// it. Every result must be OK or a non-OK Status — never a crash or hang —
// and no buffer a decoder sizes from a length field may outgrow the bytes
// it was handed, so nothing allocates beyond kMaxPayloadBytes.

#include "net/wire.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/checksum.h"
#include "common/random.h"

namespace tilestore {
namespace net {
namespace {

/// Each encoded tile occupies at least 1 (dim) + 16 (one bound pair) +
/// 8 (cell length) payload bytes; a decoder may reserve one tile slot per
/// such span.
constexpr size_t kMinWireTileBytes = 1 + 16 + 8;

/// Decodes `payload`; `*largest` receives the largest buffer the decoded
/// value holds whose size came from the input (strings, cell bytes, the
/// tile table).
using DecodeFn =
    std::function<Status(const std::vector<uint8_t>& payload, size_t* largest)>;

struct Target {
  std::string name;
  std::vector<std::vector<uint8_t>> seeds;  // valid encodings
  DecodeFn decode;
};

const MInterval kRegion({{0, 63}, {-8, 200}});
const MInterval kOpenRegion(
    {{0, kHiUnbounded}, {kLoUnbounded, 9}, {3, 3}});

// --------------------------------------------------------------------------
// Targets: one per decoder, seeded with valid encodings.

std::vector<Target> RequestTargets() {
  std::vector<Target> targets;
  targets.push_back(
      {"open_mdd",
       {EncodeOpenMDDRequest({"grid"}), EncodeOpenMDDRequest({""}),
        EncodeOpenMDDRequest({std::string(40, 'n')})},
       [](const std::vector<uint8_t>& p, size_t* largest) {
         OpenMDDRequest out;
         const Status st = DecodeOpenMDDRequest(p, &out);
         *largest = out.name.size();
         return st;
       }});
  targets.push_back(
      {"range_query",
       {EncodeRangeQueryRequest({"grid", kRegion}),
        EncodeRangeQueryRequest({"g", kOpenRegion})},
       [](const std::vector<uint8_t>& p, size_t* largest) {
         RangeQueryRequest out;
         const Status st = DecodeRangeQueryRequest(p, &out);
         *largest = out.name.size();
         return st;
       }});
  targets.push_back(
      {"aggregate",
       {EncodeAggregateRequest({"grid", kRegion, 0}),
        EncodeAggregateRequest({"cube", kOpenRegion, 4})},
       [](const std::vector<uint8_t>& p, size_t* largest) {
         AggregateRequest out;
         const Status st = DecodeAggregateRequest(p, &out);
         *largest = out.name.size();
         return st;
       }});

  InsertTilesRequest create;
  create.name = "fresh";
  create.create_if_missing = true;
  create.definition_domain = MInterval({{0, 7}, {0, 7}});
  create.cell_type_id = 1;
  for (int t = 0; t < 2; ++t) {
    WireTile tile;
    tile.domain = MInterval({{0, 3}, {4 * t, 4 * t + 3}});
    for (int i = 0; i < 16; ++i) {
      tile.cells.push_back(static_cast<uint8_t>(t * 16 + i));
    }
    create.tiles.push_back(std::move(tile));
  }
  InsertTilesRequest append;
  append.name = "grid";
  append.tiles.push_back(create.tiles[0]);
  targets.push_back(
      {"insert_tiles",
       {EncodeInsertTilesRequest(create), EncodeInsertTilesRequest(append)},
       [](const std::vector<uint8_t>& p, size_t* largest) {
         InsertTilesRequest out;
         const Status st = DecodeInsertTilesRequest(p, &out);
         *largest = std::max<size_t>(
             {out.name.size(), out.tiles.capacity() * kMinWireTileBytes});
         for (const WireTile& tile : out.tiles) {
           *largest = std::max(*largest, tile.cells.capacity());
         }
         return st;
       }});

  targets.push_back(
      {"stats",
       {EncodeStatsRequest({0}), EncodeStatsRequest({2})},
       [](const std::vector<uint8_t>& p, size_t* largest) {
         StatsRequest out;
         *largest = 0;
         return DecodeStatsRequest(p, &out);
       }});
  targets.push_back(
      {"retile",
       {EncodeRetileRequest({"grid"})},
       [](const std::vector<uint8_t>& p, size_t* largest) {
         RetileRequest out;
         const Status st = DecodeRetileRequest(p, &out);
         *largest = out.name.size();
         return st;
       }});
  targets.push_back(
      {"hello",
       {EncodeHelloRequest({}), EncodeHelloRequest({1, 3})},
       [](const std::vector<uint8_t>& p, size_t* largest) {
         HelloRequest out;
         *largest = 0;
         return DecodeHelloRequest(p, &out);
       }});
  targets.push_back(
      {"compact",
       {EncodeCompactRequest({"grid"})},
       [](const std::vector<uint8_t>& p, size_t* largest) {
         CompactRequest out;
         const Status st = DecodeCompactRequest(p, &out);
         *largest = out.name.size();
         return st;
       }});
  targets.push_back(
      {"filter_query",
       {EncodeFilterQueryRequest({"grid", kRegion, 2, 50, 120}),
        EncodeFilterQueryRequest({"g", kOpenRegion, 0, -1.5, 0})},
       [](const std::vector<uint8_t>& p, size_t* largest) {
         FilterQueryRequest out;
         const Status st = DecodeFilterQueryRequest(p, &out);
         *largest = out.name.size();
         return st;
       }});
  return targets;
}

std::vector<Target> ResponseTargets() {
  const std::vector<uint8_t> error =
      EncodeErrorResponse(Status::NotFound("no such object: grid"));
  std::vector<Target> targets;
  targets.push_back(
      {"ping_response",
       {EncodePingResponse(), error},
       [](const std::vector<uint8_t>& p, size_t* largest) {
         Status server;
         const Status st = DecodePingResponse(p, &server);
         *largest = server.message().size();
         return st;
       }});

  OpenMDDResponse open;
  open.definition_domain = kOpenRegion;
  open.has_current_domain = true;
  open.current_domain = MInterval({{0, 9}, {0, 9}, {3, 3}});
  open.cell_type_id = 4;
  open.tile_count = 12;
  targets.push_back(
      {"open_mdd_response",
       {EncodeOpenMDDResponse(open), error},
       [](const std::vector<uint8_t>& p, size_t* largest) {
         Status server;
         OpenMDDResponse out;
         const Status st = DecodeOpenMDDResponse(p, &server, &out);
         *largest = server.message().size();
         return st;
       }});

  RangeQueryResponse range;
  range.domain = MInterval({{0, 3}, {0, 3}});
  range.cell_type_id = 1;
  for (int i = 0; i < 16; ++i) range.cells.push_back(static_cast<uint8_t>(i));
  targets.push_back(
      {"range_query_response",
       {EncodeRangeQueryResponse(range), error},
       [](const std::vector<uint8_t>& p, size_t* largest) {
         Status server;
         RangeQueryResponse out;
         const Status st = DecodeRangeQueryResponse(p, &server, &out);
         *largest =
             std::max<size_t>({server.message().size(), out.cells.capacity()});
         return st;
       }});
  targets.push_back(
      {"aggregate_response",
       {EncodeAggregateResponse({3.5}), error},
       [](const std::vector<uint8_t>& p, size_t* largest) {
         Status server;
         AggregateResponse out;
         const Status st = DecodeAggregateResponse(p, &server, &out);
         *largest = server.message().size();
         return st;
       }});
  targets.push_back(
      {"insert_tiles_response",
       {EncodeInsertTilesResponse({7}), error},
       [](const std::vector<uint8_t>& p, size_t* largest) {
         Status server;
         InsertTilesResponse out;
         const Status st = DecodeInsertTilesResponse(p, &server, &out);
         *largest = server.message().size();
         return st;
       }});
  targets.push_back(
      {"stats_response",
       {EncodeStatsResponse({"{\"net.requests\": 3}"}), error},
       [](const std::vector<uint8_t>& p, size_t* largest) {
         Status server;
         StatsResponse out;
         const Status st = DecodeStatsResponse(p, &server, &out);
         *largest =
             std::max<size_t>({server.message().size(), out.text.size()});
         return st;
       }});

  RetileResponse retile;
  retile.migrated = true;
  retile.kind = "directional";
  retile.rationale = "hot band along axis 0";
  retile.predicted_gain = 2.4;
  retile.steps = 3;
  retile.tiles_before = 16;
  retile.tiles_after = 9;
  retile.cells_moved = 4096;
  targets.push_back(
      {"retile_response",
       {EncodeRetileResponse(retile), error},
       [](const std::vector<uint8_t>& p, size_t* largest) {
         Status server;
         RetileResponse out;
         const Status st = DecodeRetileResponse(p, &server, &out);
         *largest = std::max<size_t>({server.message().size(),
                                      out.kind.size(), out.rationale.size()});
         return st;
       }});
  targets.push_back(
      {"hello_response",
       {EncodeHelloResponse({kWireVersion, 1, 3}), error},
       [](const std::vector<uint8_t>& p, size_t* largest) {
         Status server;
         HelloResponse out;
         const Status st = DecodeHelloResponse(p, &server, &out);
         *largest = server.message().size();
         return st;
       }});

  CompactResponse compact;
  compact.compacted = true;
  compact.rationale = "fragmentation 0.62 above floor";
  compact.frag_before = 0.62;
  compact.frag_after = 0.01;
  compact.steps = 2;
  compact.tiles_moved = 40;
  compact.bytes_moved = 1 << 20;
  targets.push_back(
      {"compact_response",
       {EncodeCompactResponse(compact), error},
       [](const std::vector<uint8_t>& p, size_t* largest) {
         Status server;
         CompactResponse out;
         const Status st = DecodeCompactResponse(p, &server, &out);
         *largest = std::max<size_t>(
             {server.message().size(), out.rationale.size()});
         return st;
       }});

  FilterQueryResponse filter;
  filter.domain = range.domain;
  filter.cell_type_id = range.cell_type_id;
  filter.cells = range.cells;
  targets.push_back(
      {"filter_query_response",
       {EncodeFilterQueryResponse(filter), error},
       [](const std::vector<uint8_t>& p, size_t* largest) {
         Status server;
         FilterQueryResponse out;
         const Status st = DecodeFilterQueryResponse(p, &server, &out);
         *largest =
             std::max<size_t>({server.message().size(), out.cells.capacity()});
         return st;
       }});
  return targets;
}

// --------------------------------------------------------------------------
// Mutations.

const uint32_t kHostile32[] = {0xFFFFFFFFu, 0x80000000u, 0x7FFFFFFFu,
                               static_cast<uint32_t>(kMaxPayloadBytes),
                               static_cast<uint32_t>(kMaxPayloadBytes + 1)};
const uint64_t kHostile64[] = {~uint64_t{0}, uint64_t{1} << 63,
                               uint64_t{0xFFFFFFFFu}, kMaxPayloadBytes,
                               kMaxPayloadBytes + 1};

void PutLE(std::vector<uint8_t>* buf, size_t off, uint64_t v, size_t width) {
  for (size_t i = 0; i < width; ++i) {
    (*buf)[off + i] = static_cast<uint8_t>(v >> (8 * i));
  }
}

/// Writes a hostile little-endian length of `width` bytes at `off`,
/// growing the buffer when it is too short to hold one.
void PutHostile(std::vector<uint8_t>* buf, size_t off, uint64_t v,
                size_t width) {
  if (buf->size() < off + width) buf->resize(off + width, 0);
  PutLE(buf, off, v, width);
}

std::vector<uint8_t> Mutate(const std::vector<uint8_t>& seed, Random* rng) {
  std::vector<uint8_t> out = seed;
  switch (rng->Uniform(4)) {
    case 0: {  // byte flips
      if (out.empty()) out.push_back(0);
      const uint64_t flips = 1 + rng->Uniform(4);
      for (uint64_t i = 0; i < flips; ++i) {
        out[rng->Uniform(out.size())] ^=
            static_cast<uint8_t>(1 + rng->Uniform(255));
      }
      break;
    }
    case 1:  // truncation (possibly to nothing)
      out.resize(rng->Uniform(out.size() + 1));
      break;
    case 2: {  // extension with random bytes
      const uint64_t extra = 1 + rng->Uniform(16);
      for (uint64_t i = 0; i < extra; ++i) {
        out.push_back(static_cast<uint8_t>(rng->Uniform(256)));
      }
      break;
    }
    default: {  // hostile length field at a random offset
      const bool wide = rng->Uniform(2) == 1;
      const size_t width = wide ? 8 : 4;
      const size_t off =
          out.size() >= width ? rng->Uniform(out.size() - width + 1) : 0;
      const uint64_t value = wide ? kHostile64[rng->Uniform(5)]
                                  : kHostile32[rng->Uniform(5)];
      PutHostile(&out, off, value, width);
      break;
    }
  }
  return out;
}

/// Runs one decode and checks the contract: a Status either way, and no
/// input-sized buffer larger than the input.
void Check(const Target& target, const std::vector<uint8_t>& payload) {
  size_t largest = 0;
  const Status st = target.decode(payload, &largest);
  (void)st;  // OK and non-OK are both acceptable answers
  EXPECT_LE(largest, payload.size())
      << target.name << ": a " << payload.size()
      << "-byte payload sized a buffer of " << largest << " bytes";
}

std::vector<Target> AllTargets() {
  std::vector<Target> all = RequestTargets();
  for (Target& t : ResponseTargets()) all.push_back(std::move(t));
  return all;
}

TEST(NetWireFuzz, SeedsDecodeCleanly) {
  for (const Target& target : AllTargets()) {
    for (const std::vector<uint8_t>& seed : target.seeds) {
      size_t largest = 0;
      const Status st = target.decode(seed, &largest);
      EXPECT_TRUE(st.ok()) << target.name << ": " << st.ToString();
      EXPECT_LE(largest, seed.size()) << target.name;
    }
  }
}

TEST(NetWireFuzz, RandomMutationsNeverCrashOrOverAllocate) {
  Random rng(20261017);
  for (const Target& target : AllTargets()) {
    for (const std::vector<uint8_t>& seed : target.seeds) {
      for (int iter = 0; iter < 5000; ++iter) {
        Check(target, Mutate(seed, &rng));
      }
    }
  }
}

TEST(NetWireFuzz, HostileLengthAtEveryOffset) {
  // Exhaustive over positions: wherever a length prefix sits in a valid
  // encoding, every hostile value lands on it at some offset.
  for (const Target& target : AllTargets()) {
    for (const std::vector<uint8_t>& seed : target.seeds) {
      for (size_t off = 0; off < seed.size(); ++off) {
        for (uint32_t v : kHostile32) {
          std::vector<uint8_t> payload = seed;
          PutHostile(&payload, off, v, 4);
          Check(target, payload);
        }
        for (uint64_t v : kHostile64) {
          std::vector<uint8_t> payload = seed;
          PutHostile(&payload, off, v, 8);
          Check(target, payload);
        }
      }
    }
  }
}

TEST(NetWireFuzz, EveryTruncationIsRejectedOrDecodes) {
  for (const Target& target : AllTargets()) {
    for (const std::vector<uint8_t>& seed : target.seeds) {
      for (size_t cut = 0; cut < seed.size(); ++cut) {
        Check(target,
              std::vector<uint8_t>(seed.begin(), seed.begin() + cut));
      }
    }
  }
}

// --------------------------------------------------------------------------
// Whole frames through the server's read step: header, payload CRC, then
// the request decoder the header's op selects.

DecodeFn RequestDecoderFor(WireOp op, const std::vector<Target>& targets) {
  const std::string name(WireOpName(op));
  for (const Target& t : targets) {
    if (t.name == name) return t.decode;
  }
  return nullptr;  // kPing carries no request body
}

/// Mirrors TileServer's read step over one buffered frame. Returns true
/// when the frame reached a request decoder.
bool ServeReadStep(const std::vector<uint8_t>& frame,
                   const std::vector<Target>& targets) {
  if (frame.size() < kHeaderBytes) return false;  // still waiting for bytes
  FrameHeader header;
  if (!DecodeHeader(frame.data(), &header).ok() || header.response) {
    return false;
  }
  // The server allocates the payload buffer from this length.
  EXPECT_LE(header.payload_len, kMaxPayloadBytes);
  if (frame.size() - kHeaderBytes < header.payload_len) return false;
  const std::vector<uint8_t> payload(
      frame.begin() + kHeaderBytes,
      frame.begin() + kHeaderBytes + header.payload_len);
  if (!VerifyPayload(header, payload).ok()) return false;
  const DecodeFn decode = RequestDecoderFor(header.op, targets);
  if (decode == nullptr) return true;
  size_t largest = 0;
  (void)decode(payload, &largest);
  EXPECT_LE(largest, payload.size()) << WireOpName(header.op);
  return true;
}

std::vector<std::vector<uint8_t>> SeedFrames(
    const std::vector<Target>& requests) {
  const WireOp ops[] = {WireOp::kOpenMDD,     WireOp::kRangeQuery,
                        WireOp::kAggregate,   WireOp::kInsertTiles,
                        WireOp::kStats,       WireOp::kRetile,
                        WireOp::kHello,       WireOp::kCompact,
                        WireOp::kFilterQuery};
  std::vector<std::vector<uint8_t>> frames;
  frames.push_back(EncodeFrame(WireOp::kPing, false, 1, {}));
  for (WireOp op : ops) {
    for (const Target& t : requests) {
      if (t.name != WireOpName(op)) continue;
      for (const std::vector<uint8_t>& seed : t.seeds) {
        frames.push_back(EncodeFrame(op, false, frames.size() + 1, seed));
      }
    }
  }
  return frames;
}

/// Recomputes the payload CRC (when the claimed payload is all present)
/// and then the header CRC of a mutated frame.
void ResealCrcs(std::vector<uint8_t>* frame) {
  if (frame->size() < kHeaderBytes) return;
  const uint8_t* len = frame->data() + 16;
  const size_t payload_len = static_cast<size_t>(len[0]) |
                             static_cast<size_t>(len[1]) << 8 |
                             static_cast<size_t>(len[2]) << 16 |
                             static_cast<size_t>(len[3]) << 24;
  if (frame->size() - kHeaderBytes >= payload_len) {
    PutLE(frame, 20, Crc32c(frame->data() + kHeaderBytes, payload_len), 4);
  }
  PutLE(frame, 24, Crc32c(frame->data(), 24), 4);
}

TEST(NetWireFuzz, MutatedFramesThroughTheServerReadStep) {
  const std::vector<Target> requests = RequestTargets();
  const std::vector<std::vector<uint8_t>> frames = SeedFrames(requests);
  for (const std::vector<uint8_t>& frame : frames) {
    EXPECT_TRUE(ServeReadStep(frame, requests));
  }
  Random rng(0x5EED);
  int reached_decoder = 0;
  for (const std::vector<uint8_t>& frame : frames) {
    for (int iter = 0; iter < 2000; ++iter) {
      std::vector<uint8_t> mutated = Mutate(frame, &rng);
      // Half the time re-seal both CRCs, so the mutation reaches the
      // magic/version/op/length checks and the request decoder instead of
      // stopping at a checksum.
      if (rng.Uniform(2) == 0) ResealCrcs(&mutated);
      if (ServeReadStep(mutated, requests)) ++reached_decoder;
    }
  }
  EXPECT_GT(reached_decoder, 0);
}

TEST(NetWireFuzz, HostilePayloadLengthInHeaderIsBounded) {
  // Every resealed length beyond the protocol bound is refused before the
  // server would size a payload buffer from it.
  std::vector<uint8_t> frame = EncodeFrame(WireOp::kPing, false, 9, {});
  for (uint32_t v : kHostile32) {
    PutLE(&frame, 16, v, 4);
    PutLE(&frame, 24, Crc32c(frame.data(), 24), 4);
    FrameHeader header;
    const Status st = DecodeHeader(frame.data(), &header);
    if (v > kMaxPayloadBytes) {
      EXPECT_TRUE(st.IsCorruption()) << v;
    } else {
      ASSERT_TRUE(st.ok()) << st.ToString();
      EXPECT_EQ(header.payload_len, v);
    }
  }
}

TEST(NetWireFuzz, MutatedPayloadsFailTheirCrc) {
  const std::vector<uint8_t> payload =
      EncodeRangeQueryRequest({"grid", kRegion});
  const std::vector<uint8_t> frame =
      EncodeFrame(WireOp::kRangeQuery, false, 3, payload);
  FrameHeader header;
  ASSERT_TRUE(DecodeHeader(frame.data(), &header).ok());
  Random rng(77);
  for (int iter = 0; iter < 2000; ++iter) {
    const std::vector<uint8_t> mutated = Mutate(payload, &rng);
    if (mutated == payload) continue;
    EXPECT_TRUE(VerifyPayload(header, mutated).IsCorruption());
  }
}

}  // namespace
}  // namespace net
}  // namespace tilestore
