/**
 * @file
 * A small JSON reader for the files snsbench reads back: BENCHMARK.json,
 * trajectory records and Chrome trace files. Numbers are doubles;
 * object members keep their order.
 */

#ifndef SNSBENCH_JSON_HH
#define SNSBENCH_JSON_HH

#include <string>
#include <utility>
#include <vector>

namespace snsbench {

struct Json
{
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };
    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    std::vector<Json> array;
    std::vector<std::pair<std::string, Json>> object;

    /** Member `key` of an object, or nullptr. */
    const Json *get(const std::string &key) const;
};

/** Parse `text`; on failure returns false with a message in `error`. */
bool parseJson(const std::string &text, Json &out, std::string &error);

/** Read and parse a whole file. */
bool parseJsonFile(const std::string &path, Json &out, std::string &error);

} // namespace snsbench

#endif // SNSBENCH_JSON_HH
