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
 * layout; dist provides the naming, the meta writer, and the set
 * discovery/consistency checks, and sns::verify the one meta decoder.
 */

#ifndef SNS_DIST_SHARD_HH
#define SNS_DIST_SHARD_HH

#include <cstdint>
#include <string>
#include <vector>

#include "verify/analyzer.hh"

namespace sns::nn {
class CheckpointWriter;
class CheckpointReader;
}

namespace sns::dist {

/** The shard payload prefix and its one decoder live in sns::verify,
 * so sns_lint and the trainer read it the same way. */
using verify::kShardLayoutVersion;
using verify::kShardProducer;
using verify::parseShardName;
using verify::ShardMeta;

/** Shard checkpoint file name: ckpt-000123-r01of04.ckpt. */
std::string shardFileName(int epoch, int rank, int world);

/** Write producer + layout version + meta fields. */
void writeShardMeta(nn::CheckpointWriter &writer, const ShardMeta &meta);

/** verify::decodeShardMeta() that throws nn::SerializeError, naming
 * `where`, for any payload it does not accept. */
ShardMeta readShardMeta(nn::CheckpointReader &reader,
                        const std::string &where);

/**
 * C-SHARD-SET: do these metas form one coherent resumable set? Checks
 * world/fingerprints/epoch/slices/param_count identical, each shard
 * admissible on its own (verify::checkShardMeta, C-SHARD-META), every
 * rank 0..world-1 present exactly once, and the owned ranges partition
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
