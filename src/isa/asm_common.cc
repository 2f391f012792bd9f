#include "isa/asm_common.hh"

#include <cctype>

namespace flick
{

namespace
{

std::string
trim(const std::string &s)
{
    std::size_t b = s.find_first_not_of(" \t\r");
    if (b == std::string::npos)
        return "";
    std::size_t e = s.find_last_not_of(" \t\r");
    return s.substr(b, e - b + 1);
}

} // namespace

std::vector<AsmLine>
lexAsm(const std::string &source)
{
    std::vector<AsmLine> lines;
    std::size_t pos = 0;
    int line_no = 0;

    while (pos <= source.size()) {
        std::size_t nl = source.find('\n', pos);
        std::string raw = source.substr(
            pos, nl == std::string::npos ? std::string::npos : nl - pos);
        pos = (nl == std::string::npos) ? source.size() + 1 : nl + 1;
        ++line_no;

        // Strip comments.
        for (const char *marker : {"#", "//"}) {
            std::size_t c = raw.find(marker);
            if (c != std::string::npos)
                raw = raw.substr(0, c);
        }
        raw = trim(raw);
        if (raw.empty())
            continue;

        AsmLine line;
        line.lineNo = line_no;

        // Peel off leading "label:" definitions.
        while (true) {
            std::size_t colon = raw.find(':');
            if (colon == std::string::npos)
                break;
            std::string head = trim(raw.substr(0, colon));
            if (!isSymbolName(head))
                break;
            line.labels.push_back(head);
            raw = trim(raw.substr(colon + 1));
        }

        if (!raw.empty()) {
            std::size_t sp = raw.find_first_of(" \t");
            std::string op = (sp == std::string::npos) ? raw
                                                       : raw.substr(0, sp);
            for (char &ch : op)
                ch = static_cast<char>(std::tolower(ch));
            line.op = op;

            std::string rest = (sp == std::string::npos)
                                   ? ""
                                   : trim(raw.substr(sp + 1));
            // Split operands on top-level commas.
            int depth = 0;
            std::string cur;
            for (char ch : rest) {
                if (ch == '(' || ch == '[')
                    ++depth;
                else if (ch == ')' || ch == ']')
                    --depth;
                if (ch == ',' && depth == 0) {
                    line.operands.push_back(trim(cur));
                    cur.clear();
                } else {
                    cur += ch;
                }
            }
            if (!trim(cur).empty())
                line.operands.push_back(trim(cur));
        }

        if (!line.labels.empty() || !line.op.empty())
            lines.push_back(std::move(line));
    }
    return lines;
}

std::optional<std::int64_t>
parseIntLiteral(const std::string &text)
{
    if (text.empty())
        return std::nullopt;
    std::size_t i = 0;
    bool neg = false;
    if (text[0] == '-' || text[0] == '+') {
        neg = text[0] == '-';
        i = 1;
    }
    if (i >= text.size())
        return std::nullopt;

    std::uint64_t value = 0;
    if (text.size() > i + 1 && text[i] == '0' &&
        (text[i + 1] == 'x' || text[i + 1] == 'X')) {
        i += 2;
        if (i >= text.size())
            return std::nullopt;
        for (; i < text.size(); ++i) {
            char c = static_cast<char>(std::tolower(text[i]));
            std::uint64_t digit;
            if (c >= '0' && c <= '9')
                digit = static_cast<std::uint64_t>(c - '0');
            else if (c >= 'a' && c <= 'f')
                digit = static_cast<std::uint64_t>(c - 'a' + 10);
            else
                return std::nullopt;
            value = value * 16 + digit;
        }
    } else {
        for (; i < text.size(); ++i) {
            if (!std::isdigit(static_cast<unsigned char>(text[i])))
                return std::nullopt;
            value = value * 10 +
                    static_cast<std::uint64_t>(text[i] - '0');
        }
    }
    // Negate in unsigned arithmetic: "-9223372036854775808" is INT64_MIN,
    // whose signed negation would overflow.
    return static_cast<std::int64_t>(neg ? 0 - value : value);
}

bool
isSymbolName(const std::string &text)
{
    if (text.empty())
        return false;
    char c0 = text[0];
    if (!(std::isalpha(static_cast<unsigned char>(c0)) || c0 == '_' ||
          c0 == '.')) {
        return false;
    }
    for (char c : text) {
        if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
              c == '.' || c == '$')) {
            return false;
        }
    }
    return true;
}

} // namespace flick
