/**
 * @file
 * Binary (de)serialization for model weights and training state.
 *
 * Two layers:
 *
 *  1. Weight files ("SNSW"): the flat parameter-tensor format trained
 *     models (Circuitformer, Aggregation MLPs, SeqGAN) persist and
 *     reload — "SNSW" magic, uint32 tensor count, then per tensor a
 *     uint32 ndim, int32 dims, and float32 data, all little-endian
 *     host order. Stream overloads let the same format embed inside a
 *     larger container.
 *
 *  2. Training checkpoints ("SNSC"): a self-validating container for
 *     full crash-safe training state — model weights, optimizer
 *     moments, RNG streams, epoch counters, loss history, dataset
 *     fingerprints (docs/training.md documents the exact layout).
 *     The 24-byte header is magic "SNSC", uint32 version, uint64
 *     payload length, uint64 FNV-1a of the payload; readers verify
 *     length and hash before parsing, so truncation and bit rot are
 *     detected up front with a structured error instead of a
 *     mysterious shape mismatch mid-parse. Files are committed with
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
#include <vector>

#include "tensor/autograd.hh"

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

/** @name Weight files (SNSW)
 * @{
 */

/** Write the parameter tensors to a file; SerializeError on I/O
 * failure. */
void saveParameters(const std::string &path,
                    const std::vector<tensor::Variable> &params);

/**
 * Load parameters saved by saveParameters() into the given variables.
 * Count and shapes must match exactly; throws SerializeError on
 * mismatch or I/O error.
 */
void loadParameters(const std::string &path,
                    std::vector<tensor::Variable> &params);

/** Stream forms of the SNSW format, for embedding weight blocks in a
 * training checkpoint; `where` labels errors. */
void saveParameters(std::ostream &out,
                    const std::vector<tensor::Variable> &params,
                    const std::string &where);
void loadParameters(std::istream &in,
                    std::vector<tensor::Variable> &params,
                    const std::string &where);
/** @} */

/** @name Training checkpoints (SNSC)
 * @{
 */

/** Container magic/version (the verify checkpoint checker and
 * docs/training.md mirror these values). */
inline constexpr char kCheckpointMagic[4] = {'S', 'N', 'S', 'C'};
inline constexpr uint32_t kCheckpointVersion = 1;

/**
 * Typed little-endian payload writer. The layout is positional: the
 * reader must issue the same sequence of typed reads the writer issued
 * (both sides live in core/trainer.cc for the training checkpoint).
 */
class CheckpointWriter
{
  public:
    explicit CheckpointWriter(std::ostream &out) : out_(out) {}

    void u32(uint32_t value);
    void u64(uint64_t value);
    void i64(int64_t value);
    void f64(double value);
    void str(const std::string &value);
    void bytes(const void *data, size_t size);

    /** One raw tensor: uint32 ndim, int32 dims, float32 data. */
    void tensor(const tensor::Tensor &value);

  private:
    std::ostream &out_;
};

/** Typed payload reader; every read throws SerializeError on EOF or
 * (for tensor reads) shape mismatch. */
class CheckpointReader
{
  public:
    CheckpointReader(std::istream &in, std::string where)
        : in_(in), where_(std::move(where))
    {
    }

    uint32_t u32();
    uint64_t u64();
    int64_t i64();
    double f64();
    std::string str();

    /** Read a tensor written by CheckpointWriter::tensor into `value`;
     * the shape must match exactly. */
    void tensor(tensor::Tensor &value);

  private:
    void raw(void *data, size_t size);

    std::istream &in_;
    std::string where_;
};

/**
 * Atomically commit a checkpoint payload to `path`: header (magic,
 * version, length, FNV-1a) + payload are written to `path + ".tmp"`
 * and renamed onto `path`, so readers only ever observe complete
 * files. Throws SerializeError on I/O failure.
 */
void commitCheckpoint(const std::string &path, const std::string &payload);

/**
 * Read and validate a checkpoint committed by commitCheckpoint():
 * checks magic, version, declared payload length against the file, and
 * the payload hash. Returns the payload bytes; throws SerializeError
 * (with the failing aspect named) on any mismatch.
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
