#include "dist/shard.hh"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>

#include "nn/serialize.hh"

namespace sns::dist {

std::string
shardFileName(int epoch, int rank, int world)
{
    char name[48];
    std::snprintf(name, sizeof(name), "ckpt-%06d-r%02dof%02d.ckpt",
                  epoch, rank, world);
    return name;
}

void
writeShardMeta(nn::CheckpointWriter &writer, const ShardMeta &meta)
{
    writer.str(kShardProducer);
    writer.u32(kShardLayoutVersion);
    writer.u32(meta.world);
    writer.u32(meta.rank);
    writer.u32(meta.grad_slices);
    writer.u32(meta.param_count);
    writer.u32(meta.owned_begin);
    writer.u32(meta.owned_end);
    writer.u64(meta.config_fp);
    writer.u64(meta.split_fp);
    writer.i64(meta.completed_epoch);
    writer.i64(meta.total_epochs);
}

ShardMeta
readShardMeta(nn::CheckpointReader &reader, const std::string &where)
{
    verify::Report report;
    std::string producer;
    const auto meta =
        verify::decodeShardMeta(reader, report, where, &producer);
    if (meta)
        return *meta;
    if (report.hasErrors())
        throw nn::SerializeError(report.summary());
    throw nn::SerializeError("checkpoint " + where + " was written by \"" +
                             producer + "\", expected \"" +
                             kShardProducer + "\"");
}

verify::Report
validateShardSet(const std::vector<ShardMeta> &metas,
                 const std::string &where)
{
    verify::Report report;
    if (metas.empty()) {
        report.error(verify::rules::kShardSet, where,
                     "no shard checkpoints to merge");
        return report;
    }
    const ShardMeta &first = metas.front();
    // One shard per rank: checking the count first keeps a corrupt
    // world field from sizing `seen`.
    if (metas.size() != first.world) {
        report.error(verify::rules::kShardSet, where,
                     "the set holds " + std::to_string(metas.size()) +
                         " shard(s) but rank " +
                         std::to_string(first.rank) + " declares world " +
                         std::to_string(first.world),
                     "resume from an older complete set");
        return report;
    }
    std::vector<int> seen(first.world, 0);
    std::vector<std::pair<uint32_t, uint32_t>> owned;
    for (const ShardMeta &meta : metas) {
        const std::string shard_where =
            where + " rank " + std::to_string(meta.rank);
        if (meta.world != first.world ||
            meta.grad_slices != first.grad_slices ||
            meta.param_count != first.param_count ||
            meta.config_fp != first.config_fp ||
            meta.split_fp != first.split_fp ||
            meta.completed_epoch != first.completed_epoch) {
            report.error(verify::rules::kShardSet, shard_where,
                         "shard disagrees with rank " +
                             std::to_string(first.rank) +
                             " on world/slices/fingerprints/epoch",
                         "the files mix different runs; resume from an "
                         "older complete set");
            continue;
        }
        // An inadmissible shard (rank outside the world, owned range
        // past param_count) must not index `seen`.
        const size_t errors = report.count(verify::Severity::Error);
        verify::checkShardMeta(meta, report, shard_where);
        if (report.count(verify::Severity::Error) != errors)
            continue;
        if (seen[meta.rank]++ > 0) {
            report.error(verify::rules::kShardSet, shard_where,
                         "rank appears more than once in the set");
            continue;
        }
        owned.emplace_back(meta.owned_begin, meta.owned_end);
    }
    if (report.hasErrors())
        return report;
    // The non-empty owned ranges must tile [0, param_count) exactly;
    // `next` is the first tensor no range has claimed yet.
    std::sort(owned.begin(), owned.end());
    uint32_t next = 0;
    for (const auto &[begin, end] : owned) {
        if (begin == end)
            continue;
        if (begin != next) {
            next = std::min(begin, next); // a gap or an overlap
            break;
        }
        next = end;
    }
    if (next != first.param_count) {
        report.error(verify::rules::kShardSet, where,
                     "parameter tensor " + std::to_string(next) +
                         " is owned by no shard or by several (the "
                         "shards must partition the optimizer state "
                         "exactly)");
    }
    return report;
}

std::vector<std::string>
latestCompleteShardSet(const std::string &dir, int *epoch_out)
{
    // epoch -> rank -> file, remembering the declared world.
    struct Epoch
    {
        int world = 0;
        std::map<int, std::string> files;
        bool mixed = false;
    };
    std::map<int, Epoch> epochs;
    for (const std::string &file : nn::listCheckpoints(dir)) {
        const auto parsed = parseShardName(file);
        if (!parsed)
            continue;
        Epoch &epoch = epochs[parsed->epoch];
        if (epoch.world == 0)
            epoch.world = parsed->world;
        else if (epoch.world != parsed->world)
            epoch.mixed = true; // two runs collided; not resumable
        epoch.files[parsed->rank] = file;
    }
    for (auto it = epochs.rbegin(); it != epochs.rend(); ++it) {
        const Epoch &epoch = it->second;
        if (epoch.mixed ||
            epoch.files.size() != static_cast<size_t>(epoch.world))
            continue;
        std::vector<std::string> files;
        files.reserve(epoch.files.size());
        for (const auto &entry : epoch.files)
            files.push_back(entry.second);
        if (epoch_out != nullptr)
            *epoch_out = it->first;
        return files;
    }
    return {};
}

} // namespace sns::dist
