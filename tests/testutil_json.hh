/**
 * @file
 * Minimal JSON document model + recursive-descent parser for tests —
 * enough to validate our exporters without external dependencies.
 * Shared by test_obs.cc and test_obs_live.cc.
 */

#ifndef XFD_TESTS_TESTUTIL_JSON_HH
#define XFD_TESTS_TESTUTIL_JSON_HH

#include <cctype>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace xfdtest
{

struct Json
{
    enum Kind { Null, Bool, Num, Str, Arr, Obj };

    Kind kind = Null;
    bool b = false;
    double num = 0;
    std::string str;
    std::vector<Json> arr;
    std::vector<std::pair<std::string, Json>> obj;

    const Json *
    find(const std::string &key) const
    {
        for (const auto &[k, v] : obj) {
            if (k == key)
                return &v;
        }
        return nullptr;
    }

    const Json &
    at(const std::string &key) const
    {
        const Json *v = find(key);
        if (!v)
            throw std::runtime_error("missing key: " + key);
        return *v;
    }
};

class JsonParser
{
  public:
    explicit JsonParser(const std::string &text) : s(text) {}

    Json
    parse()
    {
        Json v = parseValue();
        skipWs();
        if (pos != s.size())
            throw std::runtime_error("trailing garbage");
        return v;
    }

  private:
    void
    skipWs()
    {
        while (pos < s.size() && std::isspace(
                                     static_cast<unsigned char>(s[pos])))
            pos++;
    }

    char
    peek()
    {
        if (pos >= s.size())
            throw std::runtime_error("unexpected end");
        return s[pos];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            throw std::runtime_error(std::string("expected ") + c);
        pos++;
    }

    bool
    consume(const char *lit)
    {
        std::size_t n = std::strlen(lit);
        if (s.compare(pos, n, lit) == 0) {
            pos += n;
            return true;
        }
        return false;
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        while (peek() != '"') {
            char c = s[pos++];
            if (c != '\\') {
                out += c;
                continue;
            }
            char e = s[pos++];
            switch (e) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              case 'u': {
                unsigned code = static_cast<unsigned>(
                    std::strtoul(s.substr(pos, 4).c_str(), nullptr, 16));
                pos += 4;
                // Test inputs only use ASCII escapes.
                out += static_cast<char>(code);
                break;
              }
              default:
                throw std::runtime_error("bad escape");
            }
        }
        pos++;
        return out;
    }

    Json
    parseValue()
    {
        skipWs();
        Json v;
        char c = peek();
        if (c == '{') {
            pos++;
            v.kind = Json::Obj;
            skipWs();
            if (peek() == '}') {
                pos++;
                return v;
            }
            while (true) {
                skipWs();
                std::string key = parseString();
                skipWs();
                expect(':');
                v.obj.emplace_back(std::move(key), parseValue());
                skipWs();
                if (peek() == ',') {
                    pos++;
                    continue;
                }
                expect('}');
                return v;
            }
        }
        if (c == '[') {
            pos++;
            v.kind = Json::Arr;
            skipWs();
            if (peek() == ']') {
                pos++;
                return v;
            }
            while (true) {
                v.arr.push_back(parseValue());
                skipWs();
                if (peek() == ',') {
                    pos++;
                    continue;
                }
                expect(']');
                return v;
            }
        }
        if (c == '"') {
            v.kind = Json::Str;
            v.str = parseString();
            return v;
        }
        if (consume("true")) {
            v.kind = Json::Bool;
            v.b = true;
            return v;
        }
        if (consume("false")) {
            v.kind = Json::Bool;
            v.b = false;
            return v;
        }
        if (consume("null"))
            return v;
        v.kind = Json::Num;
        char *end = nullptr;
        v.num = std::strtod(s.c_str() + pos, &end);
        if (end == s.c_str() + pos)
            throw std::runtime_error("bad number");
        pos = static_cast<std::size_t>(end - s.c_str());
        return v;
    }

    const std::string &s;
    std::size_t pos = 0;
};

inline Json
parseJson(const std::string &text)
{
    return JsonParser(text).parse();
}

} // namespace xfdtest

#endif // XFD_TESTS_TESTUTIL_JSON_HH
