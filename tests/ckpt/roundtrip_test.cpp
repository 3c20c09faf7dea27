// Snapshot round-trip property suite (DESIGN.md Sect. 7): for every
// kernel family, a snapshot taken mid-run and restored -- into the
// sequential counter core or into the sharded core at any worker count
// and shard size -- continues BIT-IDENTICALLY: the restored process's
// snapshot at the target round equals the uninterrupted oracle's, byte
// for byte.  This is the strongest possible resume guarantee; summary
// statistics (max load, empty bins) follow a fortiori.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>

#include "ckpt/checkpoint.hpp"
#include "ckpt/io.hpp"
#include "core/config.hpp"
#include "core/mixed_config.hpp"
#include "core/token_process.hpp"
#include "par/sharded_mixed.hpp"
#include "par/sharded_process.hpp"
#include "par/sharded_token_process.hpp"
#include "par/sharded_variants.hpp"
#include "support/rng.hpp"
#include "support/serial.hpp"

namespace rbb {
namespace {

constexpr std::uint32_t kBins = 300;
constexpr std::uint64_t kSeed = 1234;
constexpr std::uint64_t kSplitRound = 17;
constexpr std::uint64_t kTargetRound = 48;

template <typename Proc>
std::string snapshot_of(const Proc& proc) {
  serial::ByteWriter w;
  proc.snapshot(w);
  return w.take();
}

/// The property: run a sequential oracle to the target; snapshot a
/// twin at the split round; restore that snapshot into fresh processes
/// (sequential, and sharded at 1/2/8 workers x shard sizes
/// 64/256/1024); continue each to the target and demand byte equality
/// with the oracle's snapshot.
template <typename MakeSeq, typename MakeSharded>
void ExpectRestoreBitIdentical(MakeSeq make_seq, MakeSharded make_sharded) {
  auto oracle = make_seq();
  oracle.run(kTargetRound);
  const std::string want = snapshot_of(oracle);

  auto twin = make_seq();
  twin.run(kSplitRound);
  const std::string mid = snapshot_of(twin);

  {
    auto p = make_seq();
    serial::ByteReader r(mid);
    p.restore(r);
    ASSERT_TRUE(r.done());
    ASSERT_EQ(p.round(), kSplitRound);
    p.run(kTargetRound - kSplitRound);
    EXPECT_EQ(snapshot_of(p), want) << "sequential restore diverged";
  }
  for (const unsigned threads : {1u, 2u, 8u}) {
    for (const std::uint32_t shard : {64u, 256u, 1024u}) {
      auto p = make_sharded(
          par::ShardedOptions{.threads = threads, .shard_size = shard});
      serial::ByteReader r(mid);
      p.restore(r);
      ASSERT_TRUE(r.done());
      ASSERT_EQ(p.round(), kSplitRound);
      p.run(kTargetRound - kSplitRound);
      EXPECT_EQ(snapshot_of(p), want)
          << "sharded restore diverged at threads=" << threads
          << " shard_size=" << shard;
    }
  }
}

LoadConfig start_config() {
  Rng rng(kSeed);
  return make_config(InitialConfig::kAllInOne, kBins, kBins, rng);
}

TEST(CkptRoundtrip, LoadBitIdenticalAcrossBackends) {
  ExpectRestoreBitIdentical(
      [] { return par::SequentialCounterProcess(start_config(), kSeed); },
      [](par::ShardedOptions o) {
        return par::ShardedRepeatedBallsProcess(start_config(), kSeed, o);
      });
}

TEST(CkptRoundtrip, TetrisBitIdenticalAcrossBackends) {
  ExpectRestoreBitIdentical(
      [] {
        return par::SequentialCounterTetrisProcess(start_config(), kSeed);
      },
      [](par::ShardedOptions o) {
        return par::ShardedTetrisProcess(start_config(), kSeed, 0, o);
      });
}

TEST(CkptRoundtrip, DChoicesBitIdenticalAcrossBackends) {
  ExpectRestoreBitIdentical(
      [] {
        return par::SequentialCounterDChoicesProcess(start_config(), 2, kSeed);
      },
      [](par::ShardedOptions o) {
        return par::ShardedDChoicesProcess(start_config(), 2, kSeed, o);
      });
}

TEST(CkptRoundtrip, LeakyBitIdenticalAcrossBackends) {
  ExpectRestoreBitIdentical(
      [] {
        return par::SequentialCounterLeakyBinsProcess(start_config(), 0.5,
                                                      kSeed);
      },
      [](par::ShardedOptions o) {
        return par::ShardedLeakyBinsProcess(start_config(), 0.5, kSeed, o);
      });
}

TEST(CkptRoundtrip, TokenBitIdenticalAcrossBackendsAllPolicies) {
  for (const QueuePolicy policy :
       {QueuePolicy::kFifo, QueuePolicy::kLifo, QueuePolicy::kRandom}) {
    SCOPED_TRACE(to_string(policy));
    kernel::TokenOptions options;
    options.policy = policy;
    ExpectRestoreBitIdentical(
        [options] {
          return par::SequentialCounterTokenProcess(
              kBins, identity_placement(kBins), kSeed, options);
        },
        [options](par::ShardedOptions o) {
          return par::ShardedTokenProcess(kBins, identity_placement(kBins),
                                          kSeed, o, options);
        });
  }
}

TEST(CkptRoundtrip, TokenVisitTrackingSurvivesRestore) {
  kernel::TokenOptions options;
  options.track_visits = true;
  ExpectRestoreBitIdentical(
      [options] {
        return par::SequentialCounterTokenProcess(
            kBins, identity_placement(kBins), kSeed, options);
      },
      [options](par::ShardedOptions o) {
        return par::ShardedTokenProcess(kBins, identity_placement(kBins),
                                        kSeed, o, options);
      });
}

TEST(CkptRoundtrip, MixedBitIdenticalAcrossBackends) {
  for (const char* bins : {"uniform", "two-speed", "stalled-tenth", "capped"}) {
    SCOPED_TRACE(bins);
    const MixedSpec spec = make_mixed_spec(kBins, 2.0, "bimodal", bins);
    ExpectRestoreBitIdentical(
        [&spec] { return par::SequentialCounterMixedProcess(spec, kSeed); },
        [&spec](par::ShardedOptions o) {
          return par::ShardedMixedProcess(spec, kSeed, o);
        });
  }
}

// Restore must reject a payload whose shape disagrees with the
// constructed process (a CRC-valid checkpoint of a different run).
TEST(CkptRoundtrip, RestoreRejectsMismatchedShape) {
  par::SequentialCounterProcess small(
      [] {
        Rng rng(kSeed);
        return make_config(InitialConfig::kOnePerBin, 64, 64, rng);
      }(),
      kSeed);
  small.run(5);
  const std::string mid = snapshot_of(small);

  par::SequentialCounterProcess big(start_config(), kSeed);
  serial::ByteReader r(mid);
  EXPECT_THROW(big.restore(r), std::exception);
}

// Pipelined continuation: multi-round sharded runs at width >= 2 take
// the double-buffered pipelined team path; a restored process must
// feed it identically.  Named CkptPipelined.* so the TSan CI job can
// select it alongside the other pipelined suites.
TEST(CkptPipelined, RestoredShardedRunMatchesOracle) {
  par::ShardedRepeatedBallsProcess oracle(
      start_config(), kSeed,
      par::ShardedOptions{.threads = 4, .shard_size = 64});
  oracle.run(200);
  const std::string want = snapshot_of(oracle);

  par::ShardedRepeatedBallsProcess twin(
      start_config(), kSeed,
      par::ShardedOptions{.threads = 4, .shard_size = 64});
  twin.run(73);
  const std::string mid = snapshot_of(twin);

  par::ShardedRepeatedBallsProcess resumed(
      start_config(), kSeed,
      par::ShardedOptions{.threads = 4, .shard_size = 64});
  serial::ByteReader r(mid);
  resumed.restore(r);
  ASSERT_TRUE(r.done());
  resumed.run(200 - 73);  // long enough to engage the pipelined path
  EXPECT_EQ(snapshot_of(resumed), want);
}

TEST(CkptPipelined, SnapshotAfterPipelinedRunRestoresCleanly) {
  par::ShardedMixedProcess proc(
      make_mixed_spec(kBins, 2.0, "zipf", "capped"), kSeed,
      par::ShardedOptions{.threads = 4, .shard_size = 64});
  proc.run(120);
  const std::string mid = snapshot_of(proc);

  par::SequentialCounterMixedProcess resumed(
      make_mixed_spec(kBins, 2.0, "zipf", "capped"), kSeed);
  serial::ByteReader r(mid);
  resumed.restore(r);
  ASSERT_TRUE(r.done());
  resumed.run(80);
  ASSERT_NO_THROW(resumed.check_invariants());

  proc.run(80);
  EXPECT_EQ(snapshot_of(proc), snapshot_of(resumed));
}

// -- token restore: structural checks and shape rejection --------------------

/// A token core's snapshot with its flat-store fields addressable:
/// u64 round, u32 policy, then the slot array {next, bin} and the bin
/// array {head, tail, count}, each after its u64 element count.
struct TokenPayload {
  std::string bytes;
  std::uint32_t tokens;

  static std::size_t slot(std::uint32_t t) { return 8 + 4 + 8 + 8 * t; }
  [[nodiscard]] std::size_t bin(std::uint32_t u) const {
    return slot(tokens) + 8 + 12 * u;
  }
  [[nodiscard]] std::uint32_t get(std::size_t offset) const {
    std::uint32_t v = 0;
    std::memcpy(&v, bytes.data() + offset, sizeof v);
    return v;
  }
  void set(std::size_t offset, std::uint32_t v) {
    std::memcpy(bytes.data() + offset, &v, sizeof v);
  }
  [[nodiscard]] std::uint32_t head(std::uint32_t u) const {
    return get(bin(u));
  }
  [[nodiscard]] std::uint32_t count(std::uint32_t u) const {
    return get(bin(u) + 8);
  }
  /// The first bin at or after `from` holding at least two tokens.
  [[nodiscard]] std::uint32_t busy_bin(std::uint32_t from) const {
    std::uint32_t u = from;
    while (count(u) < 2) ++u;
    return u;
  }
};

TokenPayload token_payload() {
  par::SequentialCounterTokenProcess p(kBins, identity_placement(kBins),
                                       kSeed);
  p.run(kSplitRound);
  return TokenPayload{snapshot_of(p), kBins};
}

/// what() of the std::logic_error restore() throws on `payload`.
std::string restore_error(const TokenPayload& payload) {
  par::SequentialCounterTokenProcess p(kBins, identity_placement(kBins),
                                       kSeed);
  serial::ByteReader r(payload.bytes);
  try {
    p.restore(r);
  } catch (const std::logic_error& e) {
    return e.what();
  }
  ADD_FAILURE() << "restore accepted a corrupt token payload";
  return "";
}

TEST(CkptTokenRestore, UntouchedPayloadRestores) {
  const TokenPayload payload = token_payload();
  par::SequentialCounterTokenProcess p(kBins, identity_placement(kBins),
                                       kSeed);
  serial::ByteReader r(payload.bytes);
  ASSERT_NO_THROW(p.restore(r));
  EXPECT_EQ(snapshot_of(p), payload.bytes);
}

TEST(CkptTokenRestore, RejectsTwoTokenCycle) {
  TokenPayload payload = token_payload();
  const std::uint32_t u = payload.busy_bin(kBins / 2);
  const std::uint32_t first = payload.head(u);
  const std::uint32_t second = payload.get(TokenPayload::slot(first));
  payload.set(TokenPayload::slot(second), first);
  EXPECT_EQ(restore_error(payload),
            "TokenProcessCore: queue length drifted (or list cycle)");
}

TEST(CkptTokenRestore, RejectsTokenInTheWrongBin) {
  TokenPayload payload = token_payload();
  const std::uint32_t u = payload.busy_bin(kBins / 2);
  const std::uint32_t second = payload.get(TokenPayload::slot(payload.head(u)));
  payload.set(TokenPayload::slot(second) + 4, (u + 1) % kBins);
  EXPECT_EQ(restore_error(payload),
            "TokenProcessCore: queue/token position mismatch");
}

// A link to a token id past the slot array is caught before the slot is
// read, whether it is a list's head or a token's next.
TEST(CkptTokenRestore, RejectsOutOfRangeTokenId) {
  TokenPayload payload = token_payload();
  const std::uint32_t u = payload.busy_bin(kBins / 2);
  payload.set(TokenPayload::slot(payload.head(u)), kBins + 5);
  EXPECT_EQ(restore_error(payload),
            "TokenProcessCore: queue/token position mismatch");

  payload = token_payload();
  payload.set(payload.bin(u), kBins + 5);
  EXPECT_EQ(restore_error(payload),
            "TokenProcessCore: queue/token position mismatch");
}

TEST(CkptTokenRestore, RejectsWrongTail) {
  TokenPayload payload = token_payload();
  const std::uint32_t u = payload.busy_bin(kBins / 2);
  payload.set(payload.bin(u) + 4, payload.head(u));
  EXPECT_EQ(restore_error(payload), "TokenProcessCore: tail out of sync");
}

TEST(CkptTokenRestore, RejectsCountOffByOne) {
  for (const int delta : {+1, -1}) {
    TokenPayload payload = token_payload();
    const std::uint32_t u = payload.busy_bin(kBins - 40);
    payload.set(payload.bin(u) + 8, payload.count(u) + delta);
    EXPECT_EQ(restore_error(payload),
              "TokenProcessCore: queue length drifted (or list cycle)")
        << "delta " << delta;
  }
  // A one-token bin whose count reads 0: a head with no count.
  TokenPayload payload = token_payload();
  std::uint32_t u = kBins / 2;
  while (payload.count(u) != 1) ++u;
  payload.set(payload.bin(u) + 8, 0);
  EXPECT_EQ(restore_error(payload),
            "TokenProcessCore: queue length drifted (or list cycle)");
}

// Several bad bins walked at once: the violation reported is the lowest
// bin's, whichever lane meets its violation first.
TEST(CkptTokenRestore, ReportsTheLowestBadBin) {
  TokenPayload payload = token_payload();
  const std::uint32_t low = payload.busy_bin(100);
  const std::uint32_t high = payload.busy_bin(low + 1);
  payload.set(payload.bin(low) + 4, payload.head(low));  // tail, found late
  payload.set(TokenPayload::slot(payload.head(high)) + 4,
              (high + 1) % kBins);  // position, found at the first step
  EXPECT_EQ(restore_error(payload), "TokenProcessCore: tail out of sync");
}

// A payload of another shape is rejected before any array is
// overwritten: the target's own snapshot is unchanged afterwards.
TEST(CkptTokenRestore, OtherShapeOverwritesNothing) {
  par::SequentialCounterTokenProcess target(kBins, identity_placement(kBins),
                                            kSeed);
  target.run(5);
  const std::string before = snapshot_of(target);

  const auto shaped = [](std::uint32_t bins, std::uint32_t tokens,
                         kernel::TokenOptions options) {
    std::vector<std::uint32_t> start(tokens);
    for (std::uint32_t t = 0; t < tokens; ++t) start[t] = t % bins;
    par::SequentialCounterTokenProcess p(bins, start, kSeed, options);
    p.run(3);
    return snapshot_of(p);
  };
  kernel::TokenOptions visits;
  visits.track_visits = true;
  for (const std::string& other :
       {shaped(64, 64, {}), shaped(kBins, kBins + 1, {}),
        shaped(kBins + 1, kBins, {}), shaped(kBins, kBins, visits)}) {
    serial::ByteReader r(other);
    EXPECT_THROW(target.restore(r), std::invalid_argument);
    EXPECT_EQ(snapshot_of(target), before);
  }
}

// A token checkpoint file written by a build from before the folded
// CRC32 (every CRC from the byte-at-a-time table): FIFO, 16 bins and
// tokens, seed 5, taken after round 7.  It still reads, restores, and
// continues like an uninterrupted run.
constexpr const char* kEarlyTokenCheckpointHex =
    "524242434b505431010000000100000000000000000000001000000000000000"
    "100000000000000005000000000000000700000000000000ab14a7db11000000"
    "6578706572696d656e743d746f6b656e0a7927c63be801000000000000070000"
    "0000000000000000001000000000000000ffffffff000000000e000000020000"
    "00ffffffff0b0000000a00000004000000ffffffff07000000ffffffff010000"
    "00ffffffff0c000000010000000200000005000000010000000d000000000000"
    "00ffffffff04000000ffffffff06000000080000000100000000000000000000"
    "00ffffffff02000000ffffffff0a000000100000000000000009000000000000"
    "00030000000c0000000500000003000000070000000e00000003000000ffffff"
    "ffffffffff00000000030000000a00000002000000ffffffffffffffff000000"
    "000b0000000b00000001000000040000000400000001000000ffffffffffffff"
    "ff00000000ffffffffffffffff000000000f0000000f00000001000000020000"
    "000200000001000000060000000600000001000000ffffffffffffffff000000"
    "00ffffffffffffffff00000000ffffffffffffffff0000000010000000000000"
    "0006000000000000000300000000000000070000000000000006000000000000"
    "0006000000000000000400000000000000040000000000000006000000000000"
    "0004000000000000000400000000000000050000000000000004000000000000"
    "0002000000000000000400000000000000070000000000000004000000000000"
    "0000000000c79774be";

TEST(CkptTokenRestore, EarlyVersion1FileRestores) {
  const std::string hex = kEarlyTokenCheckpointHex;
  std::string bytes(hex.size() / 2, '\0');
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<char>(std::stoi(hex.substr(2 * i, 2), nullptr, 16));
  }
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() /
      ("rbb-early-v1-" + std::to_string(::getpid()) + ".ckpt");
  std::ofstream(path, std::ios::binary) << bytes;
  const ckpt::Checkpoint c = ckpt::read_checkpoint(path.string());
  std::filesystem::remove(path);
  EXPECT_EQ(c.header.version, 1u);
  EXPECT_EQ(c.header.family, ckpt::Family::kToken);
  EXPECT_EQ(c.header.round, 7u);
  EXPECT_EQ(c.meta, "experiment=token\n");
  ASSERT_EQ(c.payload.size(), 488u);

  par::SequentialCounterTokenProcess oracle(16, identity_placement(16), 5);
  oracle.run(7);
  EXPECT_EQ(snapshot_of(oracle), c.payload);
  par::ShardedTokenProcess resumed(16, identity_placement(16), 5,
                                   par::ShardedOptions{.threads = 2});
  serial::ByteReader r(c.payload);
  resumed.restore(r);
  ASSERT_TRUE(r.done());
  oracle.run(20);
  resumed.run(20);
  EXPECT_EQ(snapshot_of(resumed), snapshot_of(oracle));
  EXPECT_EQ(ckpt::encode(c), bytes);
}

// Every core's snapshot() sizes its writer once: the buffer is not
// regrown (which would leave up to twice the size in capacity).
TEST(CkptRoundtrip, SnapshotReservesItsSize) {
  const auto check = [](const auto& proc, const char* what) {
    serial::ByteWriter w;
    proc.snapshot(w);
    EXPECT_GE(w.str().capacity(), w.size()) << what;
    EXPECT_LT(w.str().capacity(), w.size() + 32) << what;
  };
  par::SequentialCounterProcess load(start_config(), kSeed);
  load.run(3);
  check(load, "load");
  par::SequentialCounterTetrisProcess tetris(start_config(), kSeed);
  tetris.run(3);
  check(tetris, "tetris");
  kernel::TokenOptions visits;
  visits.track_visits = true;
  par::SequentialCounterTokenProcess token(kBins, identity_placement(kBins),
                                           kSeed, visits);
  token.run(3);
  check(token, "token");
  par::SequentialCounterMixedProcess mixed(
      make_mixed_spec(kBins, 2.0, "bimodal", "uniform"), kSeed);
  mixed.run(3);
  check(mixed, "mixed");
}

}  // namespace
}  // namespace rbb
