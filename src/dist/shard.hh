/**
 * @file
 * Rank-sharded SNSC checkpoints (docs/distributed.md §Checkpoints).
 *
 * Every training run commits one SNSC container per rank per
 * checkpointed epoch (a single-process run is world 1), named
 * ckpt-EEEEEE-rRRofWW.ckpt (the shared ckpt-EEEEEE prefix keeps
 * nn::listCheckpoints' name ordering == epoch ordering, and groups a
 * set's files for the epoch-aware prune).
 *
 * Every shard carries the same payload prefix — the ShardMeta below,
 * then the RNG streams and loss curve (identical across ranks, cheap)
 * — followed by this rank's ZeRO-owned Adam moments, indexed by
 * global parameter position. Rank 0's shard additionally embeds the
 * full model weights (which all ranks hold identically). Resume reads
 * the whole set, cross-validates it (C-SHARD-SET), and reassembles
 * full optimizer state — so a run may resume at ANY admissible rank
 * count: the new ranks simply keep their own slice of the merged
 * state. world/rank are deliberately outside the config fingerprint
 * (they do not shape the numerics; grad_slices does, and is inside).
 *
 * This file stays below sns::core: the trainer drives the payload
 * layout; dist provides the naming, the meta block, and the set
 * discovery/consistency checks.
 */

#ifndef SNS_DIST_SHARD_HH
#define SNS_DIST_SHARD_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "verify/diagnostics.hh"

namespace sns::nn {
class CheckpointWriter;
class CheckpointReader;
}

namespace sns::dist {

/** Payload producer tag of a shard checkpoint; a reader refuses any
 * other producer up front, naming it. */
inline constexpr const char *kShardProducer = "sns-dist-trainer-v1";

/** Version of the shard payload layout after the producer string. */
inline constexpr uint32_t kShardLayoutVersion = 1;

/** Shard checkpoint file name: ckpt-000123-r01of04.ckpt. */
std::string shardFileName(int epoch, int rank, int world);

/** Identity parsed from a shard file name. */
struct ShardName
{
    int epoch = 0;
    int rank = 0;
    int world = 0;
};

/** Parse a checkpoint file name (path or basename); nullopt for
 * anything that is not ckpt-NNNNNN-rRRofWW.ckpt. */
std::optional<ShardName> parseShardName(const std::string &file);

/** The consistency-checked shard payload prefix. */
struct ShardMeta
{
    uint32_t world = 0;
    uint32_t rank = 0;
    uint32_t grad_slices = 0;
    uint32_t param_count = 0; ///< model parameter tensors
    uint32_t owned_begin = 0; ///< first owned parameter tensor
    uint32_t owned_end = 0;   ///< one past the last owned tensor
    uint64_t config_fp = 0;
    uint64_t split_fp = 0;
    int64_t completed_epoch = 0;
    int64_t total_epochs = 0;
};

/** Write producer + layout version + meta fields. */
void writeShardMeta(nn::CheckpointWriter &writer, const ShardMeta &meta);

/**
 * Read and validate the shard payload prefix written by
 * writeShardMeta(). Throws nn::SerializeError when the producer is not
 * kShardProducer or the layout version is unknown; `where` labels
 * errors.
 */
ShardMeta readShardMeta(nn::CheckpointReader &reader,
                        const std::string &where);

/**
 * C-SHARD-SET: do these metas form one coherent resumable set? Checks
 * every rank 0..world-1 present exactly once, world/fingerprints/
 * epoch/slices/param_count identical, and the owned ranges partition
 * [0, param_count). `where` labels findings (e.g. the directory).
 */
verify::Report validateShardSet(const std::vector<ShardMeta> &metas,
                                const std::string &where);

/**
 * The newest epoch in `dir` with a complete shard set (every rank of
 * the world its file names declare), and that set's files sorted by
 * rank. Returns an empty vector when no complete set exists;
 * incomplete sets (a killed run's partial epoch) are skipped, not
 * errors.
 */
std::vector<std::string> latestCompleteShardSet(const std::string &dir,
                                                int *epoch_out = nullptr);

} // namespace sns::dist

#endif // SNS_DIST_SHARD_HH
