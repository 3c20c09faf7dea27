// The arrival-law guard of the trajectory checkpoints.
//
// Load, Tetris and leaky switched from per-ball destination draws to
// count-split arrivals (core/kernel/count_split.hpp), and then from one
// Lemire draw per in-leaf offset to eight packed offsets per Philox
// block: same law, other draws, so a checkpoint written before either
// switch would resume into a different trajectory.  Their options
// digest therefore carries `arrival-law=count-split-packed`, and a
// checkpoint stamped with either earlier digest (no token, or
// `arrival-law=count-split`) must be refused with kDigestMismatch.
// Token, d-choices and mixed kept their kernels, so their digests must
// not move.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <optional>
#include <string>

#include "ckpt/checkpoint.hpp"
#include "ckpt/io.hpp"
#include "runner/registry.hpp"

namespace rbb {
namespace {

namespace fs = std::filesystem;

constexpr const char* kN = "512";
constexpr const char* kSeed = "9";

/// Runs `rbb run trajectory --family=<family>` for 16 rounds with a
/// checkpoint every 8 into `dir` and returns the newest checkpoint file.
std::string write_trajectory_checkpoint(const std::string& family,
                                        const std::string& dir) {
  const runner::Experiment* e = runner::default_registry().find("trajectory");
  EXPECT_NE(e, nullptr);
  runner::ParamValues values(e->params);
  EXPECT_TRUE(values.set("family", family));
  EXPECT_TRUE(values.set("n", kN));
  EXPECT_TRUE(values.set("seed", kSeed));
  EXPECT_TRUE(values.set("rounds", "16"));
  EXPECT_TRUE(values.set("checkpoint-dir", dir));
  EXPECT_TRUE(values.set("checkpoint-every", "8"));
  (void)runner::run_experiment(*e, values, BenchScale::kSmoke);
  const std::optional<std::string> latest = ckpt::latest_checkpoint(dir);
  EXPECT_TRUE(latest.has_value());
  return latest.value_or("");
}

/// Resumes the trajectory from `path` to round 24.
void resume_from(const std::string& family, const std::string& path) {
  const runner::Experiment* e = runner::default_registry().find("trajectory");
  runner::ParamValues values(e->params);
  ASSERT_TRUE(values.set("family", family));
  ASSERT_TRUE(values.set("n", kN));
  ASSERT_TRUE(values.set("seed", kSeed));
  ASSERT_TRUE(values.set("rounds", "24"));
  ASSERT_TRUE(values.set("resume-from", path));
  (void)runner::run_experiment(*e, values, BenchScale::kSmoke);
}

/// The options digest of a trajectory checkpoint at the defaults
/// (tetris arrivals 0, leaky lambda 0.5, token policy fifo, d-choices
/// d 2, mixed unit/uniform at ratio 2), followed by `suffix`: empty for
/// the per-ball arrival law, " arrival-law=count-split" for count-split
/// arrivals with one Lemire draw per in-leaf offset.
std::uint32_t digest_with(const std::string& family,
                          const std::string& suffix = "") {
  std::string c = std::string("experiment=trajectory family=") + family +
                  " n=" + kN + " seed=" + kSeed;
  if (family == "token") c += " policy=fifo";
  if (family == "tetris") c += " arrivals=0";
  if (family == "dchoices") c += " d=2";
  if (family == "leaky") c += " lambda=0.5";
  if (family == "mixed") {
    c += " ratio=2 weights=unit bin-profile=uniform";
  }
  return ckpt::digest(c + suffix);
}

/// The earlier arrival laws of the load-family checkpoints.
constexpr const char* kOldLaws[] = {"", " arrival-law=count-split"};

class ArrivalLawGuard : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("rbb-arrival-law-" + std::to_string(::getpid()) + "-" +
            GetParam());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
};

TEST_P(ArrivalLawGuard, PreCountSplitCheckpointIsRejected) {
  const std::string family = GetParam();
  const std::string path = write_trajectory_checkpoint(family, dir_.string());
  ckpt::Checkpoint c = ckpt::read_checkpoint(path);
  EXPECT_NO_THROW(resume_from(family, path)) << "the current digest resumes";

  // The same checkpoint stamped the way each earlier law stamped it.
  for (const char* law : kOldLaws) {
    SCOPED_TRACE(std::string("old law suffix \"") + law + "\"");
    EXPECT_NE(c.header.options_digest, digest_with(family, law));
    ckpt::Checkpoint old = c;
    old.header.options_digest = digest_with(family, law);
    const std::string old_path = (dir_ / "old-law.ckpt").string();
    std::string error;
    ASSERT_TRUE(ckpt::write_checkpoint_file(old_path, old, &error)) << error;
    try {
      resume_from(family, old_path);
      ADD_FAILURE() << family << ": an earlier-law checkpoint resumed";
    } catch (const ckpt::Error& e) {
      EXPECT_EQ(e.kind(), ckpt::ErrorKind::kDigestMismatch) << e.what();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(CountSplitFamilies, ArrivalLawGuard,
                         ::testing::Values("load", "tetris", "leaky"));

TEST(ArrivalLawGuardScope, OtherFamiliesKeepTheirDigest) {
  for (const char* family : {"token", "dchoices", "mixed"}) {
    const fs::path dir = fs::temp_directory_path() /
                         ("rbb-arrival-law-keep-" +
                          std::to_string(::getpid()) + "-" + family);
    fs::remove_all(dir);
    fs::create_directories(dir);
    const ckpt::Checkpoint c = ckpt::read_checkpoint(
        write_trajectory_checkpoint(family, dir.string()));
    EXPECT_EQ(c.header.options_digest, digest_with(family))
        << family;
    fs::remove_all(dir);
  }
}

}  // namespace
}  // namespace rbb
