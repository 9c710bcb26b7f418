/**
 * @file
 * Binary (de)serialization for model weights and training state.
 *
 * Two layers:
 *
 *  1. Weight blocks ("SNSW"): the flat parameter-tensor format trained
 *     models (Circuitformer, Aggregation MLPs, SeqGAN) persist and
 *     reload — "SNSW" magic, uint32 tensor count, then per tensor a
 *     uint32 ndim, int32 dims, and float32 data, all little-endian.
 *     The same block stands alone as a file or sits inside a
 *     checkpoint payload.
 *
 *  2. Training checkpoints ("SNSC"): a self-validating container for
 *     full crash-safe training state — model weights, optimizer
 *     moments, RNG streams, epoch counters, loss history, dataset
 *     fingerprints (docs/training.md documents the exact layout).
 *     The 24-byte header is the shared container header
 *     (util/container.hh); readers verify length and hash before
 *     parsing, so truncation and bit rot are detected up front with a
 *     structured error instead of a mysterious shape mismatch
 *     mid-parse. Files are committed with
 *     write-to-temp + atomic rename, so a crash mid-write never
 *     corrupts the previous checkpoint, and a rolling keep-last-N
 *     policy bounds disk use.
 */

#ifndef SNS_NN_SERIALIZE_HH
#define SNS_NN_SERIALIZE_HH

#include <cstdint>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "tensor/autograd.hh"
#include "util/container.hh"

namespace sns::nn {

/**
 * Unreadable, corrupt, or shape-mismatched checkpoint. An exception —
 * not fatal() — so long-lived processes survive a bad checkpoint: the
 * serve daemon must answer a RELOAD of a broken directory with an
 * ERROR reply, not exit. One-shot tools let it propagate to main and
 * exit 1 as before.
 */
class SerializeError : public std::runtime_error
{
  public:
    explicit SerializeError(const std::string &message)
        : std::runtime_error(message)
    {
    }
};

/**
 * Typed little-endian payload writer. The layout is positional: the
 * reader must issue the same sequence of typed reads the writer issued
 * (both sides live in core/trainer.cc for the training checkpoint).
 */
class CheckpointWriter
{
  public:
    explicit CheckpointWriter(std::ostream &out) : out_(out) {}

    void u32(uint32_t value) { bytes(&value, sizeof(value)); }
    void u64(uint64_t value) { bytes(&value, sizeof(value)); }
    void i64(int64_t value) { bytes(&value, sizeof(value)); }
    void f64(double value) { bytes(&value, sizeof(value)); }
    void str(const std::string &value);
    void bytes(const void *data, size_t size);

    /** One raw tensor: u32 ndim, i32 dims, f32 data. */
    void tensor(const tensor::Tensor &value);

  private:
    std::ostream &out_;
};

/** Typed reader over a payload that must outlive it; throws
 * SerializeError naming `where` and the file offset (`base` is that
 * of payload byte 0) on a short payload or a tensor shape mismatch. */
class CheckpointReader : public ByteReader
{
  public:
    CheckpointReader(std::string_view payload, std::string where,
                     uint64_t base = kContainerHeaderBytes);
    CheckpointReader(const CheckpointReader &) = delete;

    std::string str();

    /** Read into `value`; the shape must match exactly. */
    void tensor(tensor::Tensor &value);

    const std::string &where() const { return where_; }

  private:
    std::string where_;
};

/** @name Weight blocks (SNSW); loading requires count and shapes to
 * match exactly and throws SerializeError otherwise.
 * @{
 */
void saveParameters(CheckpointWriter &out,
                    const std::vector<tensor::Variable> &params);
void loadParameters(CheckpointReader &in,
                    std::vector<tensor::Variable> &params);

/** The same block as a whole file. */
void saveParameters(const std::string &path,
                    const std::vector<tensor::Variable> &params);
void loadParameters(const std::string &path,
                    std::vector<tensor::Variable> &params);
/** @} */

/** Write `bytes` to `path`; SerializeError on I/O failure. */
void writeFile(const std::string &path, std::string_view bytes);

/** The bytes of `path`; SerializeError if it cannot be opened. */
std::string readFile(const std::string &path);

/** @name Training checkpoints (SNSC)
 * @{
 */

/**
 * Atomically commit a checkpoint payload to `path`: header (magic,
 * version, length, FNV-1a) + payload are written to `path + ".tmp"`
 * and renamed onto `path`, so readers only ever observe complete
 * files. Throws SerializeError on I/O failure.
 */
void commitCheckpoint(const std::string &path, std::string_view payload);

/**
 * Read and validate a checkpoint committed by commitCheckpoint():
 * readContainer() checks magic, version, the declared payload length
 * against the file size (before anything is allocated from it), and
 * the payload hash. Returns the payload bytes; throws SerializeError
 * (with the failing check named) on any mismatch.
 */
std::string readCheckpointPayload(const std::string &path);

/** All ckpt-*.ckpt files in `dir`, sorted ascending by epoch (i.e. by
 * name); empty if the directory is missing. */
std::vector<std::string> listCheckpoints(const std::string &dir);

/** Delete all but the newest `keep` checkpoint EPOCHS in `dir` (the
 * rolling retention policy; keep == 0 keeps everything). Files sharing
 * one ckpt-NNNNNN prefix — a distributed run's per-rank shard set —
 * count as a single unit and are kept or dropped together. */
void pruneCheckpoints(const std::string &dir, size_t keep);
/** @} */

} // namespace sns::nn

#endif // SNS_NN_SERIALIZE_HH
