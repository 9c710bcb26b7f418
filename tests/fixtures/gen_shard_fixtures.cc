/**
 * @file
 * Regenerates the committed checkpoint lint fixtures
 * (tests/fixtures/shard_truncated.ckpt, huge_length.ckpt). Build on
 * demand:
 *
 *     cmake --build build --target gen_shard_fixtures
 *     ./build/tests/gen_shard_fixtures tests/fixtures
 *
 * The truncated fixture is a VALID SNSC container (magic, version,
 * length, hash all correct) whose payload announces the sns::dist
 * shard producer and then stops in the middle of the ShardMeta block —
 * exactly what the C-SHARD-TRUNCATED rule exists to catch: the
 * container-level checks pass, yet the shard is unusable.
 *
 * The huge-length fixture is a bare 24-byte SNSC header (version 1)
 * whose payload length claims 2^62 bytes: a reader that sizes a buffer
 * from the header before comparing it with the file size dies of
 * std::bad_alloc; C-TRUNCATED is the right answer.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "nn/serialize.hh"

int
main(int argc, char **argv)
{
    if (argc != 2) {
        std::fprintf(stderr, "usage: %s <fixture-dir>\n", argv[0]);
        return 2;
    }
    const std::string dir = argv[1];

    std::ostringstream payload;
    sns::nn::CheckpointWriter writer(payload);
    writer.str("sns-dist-trainer-v1");
    writer.u32(1); // layout version
    writer.u32(4); // world — then the meta block just stops
    sns::nn::commitCheckpoint(dir + "/shard_truncated.ckpt",
                              payload.str());
    std::fprintf(stderr, "wrote %s/shard_truncated.ckpt\n", dir.c_str());

    auto header = sns::containerHeader(sns::kCheckpointFormat, nullptr, 0);
    const uint64_t huge = uint64_t(1) << 62;
    std::memcpy(header.data() + 8, &huge, sizeof(huge));
    std::ofstream(dir + "/huge_length.ckpt", std::ios::binary)
        .write(header.data(), header.size());
    std::fprintf(stderr, "wrote %s/huge_length.ckpt\n", dir.c_str());
    return 0;
}
