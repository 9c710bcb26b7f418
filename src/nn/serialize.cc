#include "nn/serialize.hh"

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "util/fnv.hh"

namespace sns::nn {

using tensor::Tensor;
using tensor::Variable;

namespace {

constexpr char kMagic[4] = {'S', 'N', 'S', 'W'};

void
writeTensorRaw(std::ostream &out, const Tensor &value)
{
    const uint32_t ndim = static_cast<uint32_t>(value.ndim());
    out.write(reinterpret_cast<const char *>(&ndim), sizeof(ndim));
    for (int d : value.shape()) {
        const int32_t dim = d;
        out.write(reinterpret_cast<const char *>(&dim), sizeof(dim));
    }
    out.write(reinterpret_cast<const char *>(value.data()),
              static_cast<std::streamsize>(value.numel() * sizeof(float)));
}

void
readTensorRaw(std::istream &in, Tensor &value, const std::string &where)
{
    uint32_t ndim = 0;
    in.read(reinterpret_cast<char *>(&ndim), sizeof(ndim));
    if (!in || ndim != static_cast<uint32_t>(value.ndim()))
        throw SerializeError("tensor rank mismatch in " + where);
    for (int d : value.shape()) {
        int32_t dim = 0;
        in.read(reinterpret_cast<char *>(&dim), sizeof(dim));
        if (!in || dim != d)
            throw SerializeError("tensor shape mismatch in " + where);
    }
    in.read(reinterpret_cast<char *>(value.data()),
            static_cast<std::streamsize>(value.numel() * sizeof(float)));
    if (!in)
        throw SerializeError("truncated tensor data in " + where);
}

} // namespace

void
saveParameters(std::ostream &out, const std::vector<Variable> &params,
               const std::string &where)
{
    out.write(kMagic, 4);
    const uint32_t count = static_cast<uint32_t>(params.size());
    out.write(reinterpret_cast<const char *>(&count), sizeof(count));
    for (const auto &param : params)
        writeTensorRaw(out, param.value());
    if (!out)
        throw SerializeError("short write to weight stream: " + where);
}

void
loadParameters(std::istream &in, std::vector<Variable> &params,
               const std::string &where)
{
    char magic[4];
    in.read(magic, 4);
    if (!in || std::string(magic, 4) != std::string(kMagic, 4))
        throw SerializeError("bad magic in weight stream: " + where);

    uint32_t count = 0;
    in.read(reinterpret_cast<char *>(&count), sizeof(count));
    if (!in || count != params.size()) {
        throw SerializeError(
            "weight stream has " + std::to_string(count) +
            " tensors, model expects " + std::to_string(params.size()) +
            " (" + where + ")");
    }

    for (auto &param : params)
        readTensorRaw(in, param.valueMutable(), where);
}

void
saveParameters(const std::string &path, const std::vector<Variable> &params)
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        throw SerializeError("cannot open weight file for writing: " + path);
    saveParameters(out, params, path);
    if (!out)
        throw SerializeError("short write to weight file: " + path);
}

void
loadParameters(const std::string &path, std::vector<Variable> &params)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw SerializeError("cannot open weight file: " + path);
    loadParameters(in, params, path);
}

// --- Training checkpoints (SNSC). ----------------------------------

void
CheckpointWriter::bytes(const void *data, size_t size)
{
    out_.write(static_cast<const char *>(data),
               static_cast<std::streamsize>(size));
}

void
CheckpointWriter::u32(uint32_t value)
{
    bytes(&value, sizeof(value));
}

void
CheckpointWriter::u64(uint64_t value)
{
    bytes(&value, sizeof(value));
}

void
CheckpointWriter::i64(int64_t value)
{
    bytes(&value, sizeof(value));
}

void
CheckpointWriter::f64(double value)
{
    bytes(&value, sizeof(value));
}

void
CheckpointWriter::str(const std::string &value)
{
    u64(value.size());
    bytes(value.data(), value.size());
}

void
CheckpointWriter::tensor(const Tensor &value)
{
    writeTensorRaw(out_, value);
}

void
CheckpointReader::raw(void *data, size_t size)
{
    in_.read(static_cast<char *>(data),
             static_cast<std::streamsize>(size));
    if (!in_)
        throw SerializeError("truncated checkpoint payload: " + where_);
}

uint32_t
CheckpointReader::u32()
{
    uint32_t value = 0;
    raw(&value, sizeof(value));
    return value;
}

uint64_t
CheckpointReader::u64()
{
    uint64_t value = 0;
    raw(&value, sizeof(value));
    return value;
}

int64_t
CheckpointReader::i64()
{
    int64_t value = 0;
    raw(&value, sizeof(value));
    return value;
}

double
CheckpointReader::f64()
{
    double value = 0.0;
    raw(&value, sizeof(value));
    return value;
}

std::string
CheckpointReader::str()
{
    const uint64_t size = u64();
    // A string longer than the remaining payload would already have
    // failed the header length check; still bound the allocation.
    if (size > (1ull << 32))
        throw SerializeError("implausible string length in " + where_);
    std::string value(size, '\0');
    if (size > 0)
        raw(value.data(), size);
    return value;
}

void
CheckpointReader::tensor(Tensor &value)
{
    readTensorRaw(in_, value, where_);
}

void
commitCheckpoint(const std::string &path, const std::string &payload)
{
    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out) {
            throw SerializeError(
                "cannot open checkpoint for writing: " + tmp);
        }
        out.write(kCheckpointMagic, 4);
        const uint32_t version = kCheckpointVersion;
        out.write(reinterpret_cast<const char *>(&version),
                  sizeof(version));
        const uint64_t length = payload.size();
        out.write(reinterpret_cast<const char *>(&length), sizeof(length));
        const uint64_t hash = fnv1a(payload.data(), payload.size());
        out.write(reinterpret_cast<const char *>(&hash), sizeof(hash));
        out.write(payload.data(),
                  static_cast<std::streamsize>(payload.size()));
        out.flush();
        if (!out)
            throw SerializeError("short write to checkpoint: " + tmp);
    }
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
        throw SerializeError("cannot rename " + tmp + " onto " + path +
                             ": " + ec.message());
    }
}

std::string
readCheckpointPayload(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw SerializeError("cannot open checkpoint: " + path);

    char magic[4];
    in.read(magic, 4);
    if (!in ||
        std::string(magic, 4) != std::string(kCheckpointMagic, 4))
        throw SerializeError("bad checkpoint magic in " + path);

    uint32_t version = 0;
    in.read(reinterpret_cast<char *>(&version), sizeof(version));
    if (!in || version != kCheckpointVersion) {
        throw SerializeError(
            "unsupported checkpoint version " + std::to_string(version) +
            " in " + path + " (expected " +
            std::to_string(kCheckpointVersion) + ")");
    }

    uint64_t length = 0;
    uint64_t expected_hash = 0;
    in.read(reinterpret_cast<char *>(&length), sizeof(length));
    in.read(reinterpret_cast<char *>(&expected_hash),
            sizeof(expected_hash));
    if (!in)
        throw SerializeError("truncated checkpoint header in " + path);

    std::string payload(length, '\0');
    if (length > 0) {
        in.read(payload.data(), static_cast<std::streamsize>(length));
        if (!in || static_cast<uint64_t>(in.gcount()) != length) {
            throw SerializeError(
                "checkpoint truncated: " + path + " declares " +
                std::to_string(length) + " payload bytes");
        }
    }
    const uint64_t actual_hash = fnv1a(payload.data(), payload.size());
    if (actual_hash != expected_hash) {
        throw SerializeError("checkpoint payload hash mismatch in " +
                             path + " (file is corrupt)");
    }
    return payload;
}

std::vector<std::string>
listCheckpoints(const std::string &dir)
{
    std::vector<std::string> found;
    std::error_code ec;
    for (const auto &entry :
         std::filesystem::directory_iterator(dir, ec)) {
        const std::string name = entry.path().filename().string();
        if (name.rfind("ckpt-", 0) == 0 &&
            name.size() > 10 &&
            name.compare(name.size() - 5, 5, ".ckpt") == 0)
            found.push_back(entry.path().string());
    }
    // Zero-padded epoch numbers make lexicographic == numeric order.
    std::sort(found.begin(), found.end());
    return found;
}

void
pruneCheckpoints(const std::string &dir, size_t keep)
{
    if (keep == 0)
        return;
    const auto found = listCheckpoints(dir);
    // Retention counts EPOCHS, not files: a distributed run commits one
    // shard per rank per epoch (ckpt-000123-r01of04.ckpt), and deleting
    // part of a shard set would leave an unresumable remainder. Group
    // by the shared ckpt-NNNNNN prefix and drop whole groups.
    std::vector<std::string> groups; // ascending, like `found`
    const auto groupOf = [](const std::string &file) {
        return std::filesystem::path(file)
            .filename()
            .string()
            .substr(0, 11); // "ckpt-NNNNNN"
    };
    for (const auto &file : found) {
        if (groups.empty() || groups.back() != groupOf(file))
            groups.push_back(groupOf(file));
    }
    if (groups.size() <= keep)
        return;
    const std::string &oldest_kept = groups[groups.size() - keep];
    for (const auto &file : found) {
        if (groupOf(file) >= oldest_kept)
            break; // sorted: everything from here on survives
        std::error_code ec;
        std::filesystem::remove(file, ec); // best-effort cleanup
    }
}

} // namespace sns::nn
