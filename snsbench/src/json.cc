#include "json.hh"

#include <cstdlib>
#include <fstream>
#include <sstream>

namespace snsbench {

const Json *
Json::get(const std::string &key) const
{
    for (const auto &[name, value] : object) {
        if (name == key)
            return &value;
    }
    return nullptr;
}

namespace {

class Parser
{
  public:
    explicit Parser(const std::string &text) : text_(text) {}

    bool
    document(Json &out, std::string &error)
    {
        const bool ok = value(out, 0) && (skip(), pos_ == text_.size());
        if (!ok)
            error = "malformed JSON near byte " + std::to_string(pos_);
        return ok;
    }

  private:
    static constexpr int kMaxDepth = 64;

    void
    skip()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\n' ||
                text_[pos_] == '\r' || text_[pos_] == '\t'))
            ++pos_;
    }

    bool
    literal(const char *word)
    {
        const std::string w(word);
        if (text_.compare(pos_, w.size(), w) != 0)
            return false;
        pos_ += w.size();
        return true;
    }

    bool
    str(std::string &out)
    {
        if (pos_ >= text_.size() || text_[pos_] != '"')
            return false;
        ++pos_;
        while (pos_ < text_.size() && text_[pos_] != '"') {
            char c = text_[pos_++];
            if (c == '\\') {
                if (pos_ >= text_.size())
                    return false;
                c = text_[pos_++];
                switch (c) {
                case 'n': c = '\n'; break;
                case 't': c = '\t'; break;
                case 'r': c = '\r'; break;
                case 'b': c = '\b'; break;
                case 'f': c = '\f'; break;
                case 'u': {
                    // Only the control-character escapes snsbench
                    // writes; anything wider is kept as '?'.
                    if (pos_ + 4 > text_.size())
                        return false;
                    const long code = std::strtol(
                        text_.substr(pos_, 4).c_str(), nullptr, 16);
                    pos_ += 4;
                    c = code < 0x80 ? static_cast<char>(code) : '?';
                    break;
                }
                default: break; // '"', '\\', '/'
                }
            }
            out += c;
        }
        if (pos_ >= text_.size())
            return false;
        ++pos_;
        return true;
    }

    bool
    value(Json &out, int depth)
    {
        skip();
        if (pos_ >= text_.size() || depth > kMaxDepth)
            return false;
        const char c = text_[pos_];
        if (c == '{') {
            out.kind = Json::Kind::Object;
            ++pos_;
            skip();
            if (pos_ < text_.size() && text_[pos_] == '}') {
                ++pos_;
                return true;
            }
            for (;;) {
                skip();
                std::string key;
                if (!str(key))
                    return false;
                skip();
                if (pos_ >= text_.size() || text_[pos_++] != ':')
                    return false;
                Json member;
                if (!value(member, depth + 1))
                    return false;
                out.object.emplace_back(std::move(key), std::move(member));
                skip();
                if (pos_ >= text_.size())
                    return false;
                if (text_[pos_] == ',') {
                    ++pos_;
                    continue;
                }
                return text_[pos_++] == '}';
            }
        }
        if (c == '[') {
            out.kind = Json::Kind::Array;
            ++pos_;
            skip();
            if (pos_ < text_.size() && text_[pos_] == ']') {
                ++pos_;
                return true;
            }
            for (;;) {
                Json element;
                if (!value(element, depth + 1))
                    return false;
                out.array.push_back(std::move(element));
                skip();
                if (pos_ >= text_.size())
                    return false;
                if (text_[pos_] == ',') {
                    ++pos_;
                    continue;
                }
                return text_[pos_++] == ']';
            }
        }
        if (c == '"') {
            out.kind = Json::Kind::String;
            return str(out.string);
        }
        if (literal("true")) {
            out.kind = Json::Kind::Bool;
            out.boolean = true;
            return true;
        }
        if (literal("false")) {
            out.kind = Json::Kind::Bool;
            return true;
        }
        if (literal("null"))
            return true;
        const char *begin = text_.c_str() + pos_;
        char *end = nullptr;
        out.number = std::strtod(begin, &end);
        if (end == begin)
            return false;
        out.kind = Json::Kind::Number;
        pos_ += static_cast<size_t>(end - begin);
        return true;
    }

    const std::string &text_;
    size_t pos_ = 0;
};

} // namespace

bool
parseJson(const std::string &text, Json &out, std::string &error)
{
    out = Json{};
    return Parser(text).document(out, error);
}

bool
parseJsonFile(const std::string &path, Json &out, std::string &error)
{
    std::ifstream in(path);
    if (!in) {
        error = "cannot read " + path;
        return false;
    }
    std::ostringstream text;
    text << in.rdbuf();
    if (!parseJson(text.str(), out, error)) {
        error = path + ": " + error;
        return false;
    }
    return true;
}

} // namespace snsbench
