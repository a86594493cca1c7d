#include "core/export.hh"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <istream>
#include <ostream>
#include <sstream>

#include "common/logging.hh"
#include "common/string_utils.hh"
#include "sim/structure_registry.hh"

namespace gpr {

JsonWriter::JsonWriter(std::ostream& os) : os_(os) {}

void
JsonWriter::separator()
{
    if (after_key_) {
        after_key_ = false;
        return;
    }
    if (need_comma_)
        os_ << ',';
}

std::string
JsonWriter::escape(std::string_view s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20)
                out += strprintf("\\u%04x", c);
            else
                out += c;
        }
    }
    return out;
}

JsonWriter&
JsonWriter::beginObject()
{
    separator();
    os_ << '{';
    stack_ += 'o';
    need_comma_ = false;
    return *this;
}

JsonWriter&
JsonWriter::endObject()
{
    GPR_ASSERT(!stack_.empty() && stack_.back() == 'o',
               "endObject without beginObject");
    stack_.pop_back();
    os_ << '}';
    need_comma_ = true;
    return *this;
}

JsonWriter&
JsonWriter::beginArray()
{
    separator();
    os_ << '[';
    stack_ += 'a';
    need_comma_ = false;
    return *this;
}

JsonWriter&
JsonWriter::endArray()
{
    GPR_ASSERT(!stack_.empty() && stack_.back() == 'a',
               "endArray without beginArray");
    stack_.pop_back();
    os_ << ']';
    need_comma_ = true;
    return *this;
}

JsonWriter&
JsonWriter::key(std::string_view k)
{
    GPR_ASSERT(!stack_.empty() && stack_.back() == 'o',
               "keys only exist inside objects");
    if (need_comma_)
        os_ << ',';
    os_ << '"' << escape(k) << "\":";
    after_key_ = true;
    need_comma_ = false;
    return *this;
}

JsonWriter&
JsonWriter::value(std::string_view v)
{
    separator();
    os_ << '"' << escape(v) << '"';
    need_comma_ = true;
    return *this;
}

JsonWriter&
JsonWriter::value(const char* v)
{
    return value(std::string_view(v));
}

JsonWriter&
JsonWriter::value(double v)
{
    separator();
    if (std::isfinite(v))
        os_ << strprintf("%.9g", v);
    else
        os_ << "null"; // JSON has no inf/nan
    need_comma_ = true;
    return *this;
}

JsonWriter&
JsonWriter::value(std::uint64_t v)
{
    separator();
    os_ << v;
    need_comma_ = true;
    return *this;
}

JsonWriter&
JsonWriter::value(bool v)
{
    separator();
    os_ << (v ? "true" : "false");
    need_comma_ = true;
    return *this;
}

JsonWriter&
JsonWriter::raw(std::string_view token)
{
    separator();
    os_ << token;
    need_comma_ = true;
    return *this;
}

// ------------------------------------------------------------ JSON reader

bool
JsonValue::asBool() const
{
    if (kind_ != Kind::Bool)
        fatal("JSON value is not a boolean");
    return bool_;
}

double
JsonValue::asDouble() const
{
    if (kind_ != Kind::Number)
        fatal("JSON value is not a number");
    char* end = nullptr;
    const double v = std::strtod(scalar_.c_str(), &end);
    if (!end || *end != '\0')
        fatal("malformed JSON number token '", scalar_, "'");
    return v;
}

std::uint64_t
JsonValue::asU64() const
{
    if (kind_ != Kind::Number)
        fatal("JSON value is not a number");
    // Parse the raw token so 64-bit seeds above 2^53 survive exactly.
    if (scalar_.find_first_of(".eE-") != std::string::npos)
        fatal("JSON number '", scalar_, "' is not an unsigned integer");
    errno = 0;
    char* end = nullptr;
    const unsigned long long v = std::strtoull(scalar_.c_str(), &end, 10);
    if (!end || *end != '\0' || errno == ERANGE)
        fatal("JSON number '", scalar_, "' does not fit in 64 bits");
    return v;
}

const std::string&
JsonValue::asString() const
{
    if (kind_ != Kind::String)
        fatal("JSON value is not a string");
    return scalar_;
}

const std::vector<JsonValue>&
JsonValue::items() const
{
    if (kind_ != Kind::Array)
        fatal("JSON value is not an array");
    return items_;
}

const std::vector<std::pair<std::string, JsonValue>>&
JsonValue::members() const
{
    if (kind_ != Kind::Object)
        fatal("JSON value is not an object");
    return members_;
}

const JsonValue*
JsonValue::find(std::string_view key) const
{
    for (const auto& [k, v] : members()) {
        if (k == key)
            return &v;
    }
    return nullptr;
}

JsonValue
JsonValue::makeNull()
{
    return JsonValue{};
}

JsonValue
JsonValue::makeBool(bool b)
{
    JsonValue v;
    v.kind_ = Kind::Bool;
    v.bool_ = b;
    return v;
}

JsonValue
JsonValue::makeNumber(std::string token)
{
    JsonValue v;
    v.kind_ = Kind::Number;
    v.scalar_ = std::move(token);
    return v;
}

JsonValue
JsonValue::makeString(std::string s)
{
    JsonValue v;
    v.kind_ = Kind::String;
    v.scalar_ = std::move(s);
    return v;
}

JsonValue
JsonValue::makeArray(std::vector<JsonValue> items)
{
    JsonValue v;
    v.kind_ = Kind::Array;
    v.items_ = std::move(items);
    return v;
}

JsonValue
JsonValue::makeObject(
    std::vector<std::pair<std::string, JsonValue>> members)
{
    JsonValue v;
    v.kind_ = Kind::Object;
    v.members_ = std::move(members);
    return v;
}

namespace {

/** Recursive-descent parser over the subset JsonWriter emits (full JSON
 *  minus \uXXXX escapes above ASCII). */
class JsonParser
{
  public:
    explicit JsonParser(std::string_view text) : text_(text) {}

    JsonValue
    parseDocument()
    {
        JsonValue v = parseValue();
        skipWhitespace();
        if (pos_ != text_.size())
            fail("trailing garbage after JSON document");
        return v;
    }

  private:
    [[noreturn]] void
    fail(std::string_view what) const
    {
        fatal("JSON parse error at byte ", pos_, ": ", what);
    }

    void
    skipWhitespace()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r')) {
            ++pos_;
        }
    }

    char
    peek()
    {
        skipWhitespace();
        if (pos_ >= text_.size())
            fail("unexpected end of input");
        return text_[pos_];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(strprintf("expected '%c'", c));
        ++pos_;
    }

    bool
    consumeLiteral(std::string_view word)
    {
        if (text_.substr(pos_, word.size()) != word)
            return false;
        pos_ += word.size();
        return true;
    }

    JsonValue
    parseValue()
    {
        const char c = peek();
        switch (c) {
          case '{':
            return parseObject();
          case '[':
            return parseArray();
          case '"':
            return JsonValue::makeString(parseString());
          case 't':
          case 'f': {
            if (consumeLiteral("true"))
                return JsonValue::makeBool(true);
            if (consumeLiteral("false"))
                return JsonValue::makeBool(false);
            fail("malformed literal");
          }
          case 'n': {
            if (!consumeLiteral("null"))
                fail("malformed literal");
            return JsonValue::makeNull();
          }
          default:
            return parseNumber();
        }
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        while (true) {
            if (pos_ >= text_.size())
                fail("unterminated string");
            const char c = text_[pos_++];
            if (c == '"')
                return out;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size())
                fail("unterminated escape");
            const char esc = text_[pos_++];
            switch (esc) {
              case '"':
              case '\\':
              case '/':
                out += esc;
                break;
              case 'n':
                out += '\n';
                break;
              case 't':
                out += '\t';
                break;
              case 'r':
                out += '\r';
                break;
              case 'b':
                out += '\b';
                break;
              case 'f':
                out += '\f';
                break;
              case 'u': {
                if (pos_ + 4 > text_.size())
                    fail("truncated \\u escape");
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    const char h = text_[pos_++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        fail("malformed \\u escape");
                }
                if (code > 0x7f)
                    fail("\\u escapes above ASCII are not supported");
                out += static_cast<char>(code);
                break;
              }
              default:
                fail("unknown escape character");
            }
        }
    }

    JsonValue
    parseNumber()
    {
        skipWhitespace();
        const std::size_t begin = pos_;
        if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+'))
            ++pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '-' ||
                text_[pos_] == '+')) {
            ++pos_;
        }
        if (pos_ == begin)
            fail("expected a value");
        std::string token(text_.substr(begin, pos_ - begin));
        // Validate the token now so accessors can assume it is sound.
        char* end = nullptr;
        std::strtod(token.c_str(), &end);
        if (!end || *end != '\0')
            fail("malformed number");
        return JsonValue::makeNumber(std::move(token));
    }

    JsonValue
    parseArray()
    {
        expect('[');
        std::vector<JsonValue> items;
        if (peek() == ']') {
            ++pos_;
            return JsonValue::makeArray(std::move(items));
        }
        while (true) {
            items.push_back(parseValue());
            const char c = peek();
            ++pos_;
            if (c == ']')
                return JsonValue::makeArray(std::move(items));
            if (c != ',')
                fail("expected ',' or ']' in array");
        }
    }

    JsonValue
    parseObject()
    {
        expect('{');
        std::vector<std::pair<std::string, JsonValue>> members;
        if (peek() == '}') {
            ++pos_;
            return JsonValue::makeObject(std::move(members));
        }
        while (true) {
            skipWhitespace();
            std::string key = parseString();
            expect(':');
            JsonValue member = parseValue();
            for (const auto& [seen, ignored] : members) {
                (void)ignored;
                if (seen == key)
                    fail("duplicate object key '" + key + "'");
            }
            members.emplace_back(std::move(key), std::move(member));
            const char c = peek();
            ++pos_;
            if (c == '}')
                return JsonValue::makeObject(std::move(members));
            if (c != ',')
                fail("expected ',' or '}' in object");
        }
    }

    std::string_view text_;
    std::size_t pos_ = 0;
};

} // namespace

JsonValue
parseJson(std::string_view text)
{
    return JsonParser(text).parseDocument();
}

namespace {

void
writeStructure(JsonWriter& j, std::string_view key,
               const StructureReport& sr)
{
    j.key(key).beginObject();
    j.kv("applicable", sr.applicable);
    if (sr.applicable) {
        // FI fields only exist when injections actually ran on this
        // structure (--ace-only and --structures exclusions leave
        // placeholder zeros that would read as measured reliability).
        if (sr.injections) {
            // The fault model the rates were measured under — always
            // present so per-behavior exports are self-describing.
            j.kv("fault_behavior", faultBehaviorName(sr.behavior));
            j.kv("fault_pattern", faultPatternName(sr.pattern));
            j.kv("avf_fi", sr.avfFi);
            j.kv("fi_error_margin", sr.fiErrorMargin);
            j.kv("sdc_rate", sr.sdcRate);
            j.kv("due_rate", sr.dueRate);
            // Every measured rate carries its Wilson interval at
            // ci_confidence; achieved_margin is the largest half-width
            // (<= the spec margin when the stopping rule ended the
            // campaign; larger means a cap cut it short).
            j.kv("avf_ci_lo", sr.avfCi.lo);
            j.kv("avf_ci_hi", sr.avfCi.hi);
            j.kv("sdc_ci_lo", sr.sdcCi.lo);
            j.kv("sdc_ci_hi", sr.sdcCi.hi);
            j.kv("due_ci_lo", sr.dueCi.lo);
            j.kv("due_ci_hi", sr.dueCi.hi);
            j.kv("achieved_margin", sr.achievedMargin);
            j.kv("ci_confidence", sr.ciConfidence);
        }
        j.kv("avf_ace", sr.avfAce);
        j.kv("occupancy", sr.occupancy);
        j.kv("injections", static_cast<std::uint64_t>(sr.injections));
    }
    j.endObject();
}

} // namespace

void
writeReportJson(std::ostream& os, const ReliabilityReport& report)
{
    JsonWriter j(os);
    j.beginObject();
    j.kv("workload", report.workload);
    j.kv("gpu", report.gpuName);
    j.kv("cycles", static_cast<std::uint64_t>(report.cycles));
    j.kv("exec_seconds", report.execSeconds);
    j.kv("ipc", report.ipc);
    j.kv("warp_occupancy", report.warpOccupancy);
    for (const StructureSpec& spec : structureRegistry())
        writeStructure(j, spec.jsonKey, report.forStructure(spec.id));
    j.key("epf").beginObject();
    j.kv("fit_register_file", report.epf.fitRegisterFile);
    j.kv("fit_local_memory", report.epf.fitLocalMemory);
    j.kv("fit_scalar_register_file", report.epf.fitScalarRegisterFile);
    j.kv("fit_total", report.epf.fitTotal());
    j.kv("eit", report.epf.eit);
    j.kv("epf", report.epf.epf());
    j.kv("epf_ci_lo", report.epfCi.lo);
    j.kv("epf_ci_hi", report.epfCi.hi);
    j.endObject();
    j.endObject();
}

void
writeStudyJson(std::ostream& os, const StudyResult& study)
{
    JsonWriter j(os);
    j.beginObject();
    j.key("cells").beginArray();
    os.flush();
    for (const ReliabilityReport& report : study.reports) {
        // Each cell rendered through the same single-report writer for
        // consistency; JsonWriter instances cannot nest across calls,
        // so emit via a fresh writer into the same stream with manual
        // comma placement.
        if (&report != &study.reports.front())
            os << ',';
        writeReportJson(os, report);
    }
    j.endArray();

    const auto claims = study.claims();
    j.key("claims").beginObject();
    j.kv("rf_avf_occupancy_correlation", claims.rfAvfOccupancyCorrelation);
    j.kv("lm_avf_occupancy_correlation", claims.lmAvfOccupancyCorrelation);
    j.kv("rf_mean_ace_overestimate", claims.rfMeanAceOverestimate);
    j.kv("lm_mean_ace_gap", claims.lmMeanAceGap);
    j.kv("fi_seconds_total", claims.fiSecondsTotal);
    j.kv("ace_seconds_total", claims.aceSecondsTotal);
    j.endObject();
    j.endObject();
}

void
writeStudyCsv(std::ostream& os, const StudyResult& study)
{
    TextTable table(
        {"benchmark", "gpu", "cycles", "exec_seconds", "ipc",
         "rf_avf_fi", "rf_avf_lo", "rf_avf_hi", "rf_avf_ace",
         "rf_occupancy", "rf_sdc", "rf_sdc_lo", "rf_sdc_hi", "rf_due",
         "rf_due_lo", "rf_due_hi", "rf_injections",
         "lm_applicable", "lm_avf_fi", "lm_avf_lo", "lm_avf_hi",
         "lm_avf_ace", "lm_occupancy", "lm_injections",
         "ci_confidence", "fit_total", "eit", "epf", "epf_lo", "epf_hi"});
    for (const ReliabilityReport& r : study.reports) {
        const StructureReport& rf =
            r.forStructure(TargetStructure::VectorRegisterFile);
        const StructureReport& lm =
            r.forStructure(TargetStructure::SharedMemory);
        // FI cells of a structure no injections ran on stay empty —
        // "0.000000" would read as a measured ultra-reliable result.
        auto fi_cell = [](const StructureReport& sr, double value) {
            return sr.injections ? strprintf("%.6f", value)
                                 : std::string();
        };
        const double conf =
            rf.injections ? rf.ciConfidence : lm.ciConfidence;
        table.addRow(
            {r.workload, r.gpuName,
             strprintf("%llu", static_cast<unsigned long long>(r.cycles)),
             strprintf("%.6e", r.execSeconds), strprintf("%.3f", r.ipc),
             fi_cell(rf, rf.avfFi),
             fi_cell(rf, rf.avfCi.lo),
             fi_cell(rf, rf.avfCi.hi),
             strprintf("%.6f", rf.avfAce),
             strprintf("%.6f", rf.occupancy),
             fi_cell(rf, rf.sdcRate),
             fi_cell(rf, rf.sdcCi.lo),
             fi_cell(rf, rf.sdcCi.hi),
             fi_cell(rf, rf.dueRate),
             fi_cell(rf, rf.dueCi.lo),
             fi_cell(rf, rf.dueCi.hi),
             strprintf("%zu", rf.injections),
             lm.applicable ? "1" : "0",
             fi_cell(lm, lm.avfFi),
             fi_cell(lm, lm.avfCi.lo),
             fi_cell(lm, lm.avfCi.hi),
             strprintf("%.6f", lm.avfAce),
             strprintf("%.6f", lm.occupancy),
             strprintf("%zu", lm.injections),
             conf > 0.0 ? strprintf("%.4f", conf) : std::string(),
             strprintf("%.3f", r.epf.fitTotal()),
             strprintf("%.6e", r.epf.eit),
             strprintf("%.6e", r.epf.epf()),
             strprintf("%.6e", r.epfCi.lo),
             strprintf("%.6e", r.epfCi.hi)});
    }
    table.renderCsv(os);
}

// ------------------------------------------------------------- shard store

namespace {

/**
 * Locate the raw value token of @p key in a flat one-line JSON object we
 * emitted ourselves (string values never contain escapes: workload and
 * GPU names are plain identifiers).  Not a general JSON parser.
 */
bool
findField(std::string_view line, std::string_view key, std::string_view& out)
{
    const std::string needle = "\"" + std::string(key) + "\":";
    const auto pos = line.find(needle);
    if (pos == std::string_view::npos)
        return false;
    std::size_t begin = pos + needle.size();
    if (begin >= line.size())
        return false;
    std::size_t end;
    if (line[begin] == '"') {
        ++begin;
        end = line.find('"', begin);
        if (end == std::string_view::npos)
            return false;
    } else {
        end = line.find_first_of(",}", begin);
        if (end == std::string_view::npos)
            return false;
    }
    out = line.substr(begin, end - begin);
    return true;
}

bool
fieldU64(std::string_view line, std::string_view key, std::uint64_t& out)
{
    std::string_view tok;
    if (!findField(line, key, tok) || tok.empty())
        return false;
    char* end = nullptr;
    const std::string s(tok);
    out = std::strtoull(s.c_str(), &end, 10);
    return end && *end == '\0';
}

bool
fieldDouble(std::string_view line, std::string_view key, double& out)
{
    std::string_view tok;
    if (!findField(line, key, tok) || tok.empty())
        return false;
    char* end = nullptr;
    const std::string s(tok);
    out = std::strtod(s.c_str(), &end);
    return end && *end == '\0';
}

} // namespace

void
writeStoreHeader(std::ostream& os, const StoreHeader& header)
{
    JsonWriter j(os);
    j.beginObject();
    j.kv("gpr_store", header.version);
    j.kv("spec_hash", header.specHash);
    if (!header.specJson.empty())
        j.key("spec").raw(header.specJson); // pre-serialised object
    j.endObject();
}

bool
parseStoreHeader(std::string_view line, StoreHeader& out)
{
    try {
        const JsonValue v = parseJson(line);
        const JsonValue* version = v.find("gpr_store");
        const JsonValue* hash = v.find("spec_hash");
        if (!version || !hash)
            return false;
        StoreHeader h;
        h.version = version->asU64();
        h.specHash = hash->asString();
        out = std::move(h);
        return true;
    } catch (const FatalError&) {
        return false;
    }
}

void
writeShardRecord(std::ostream& os, const ShardRecord& record)
{
    JsonWriter j(os);
    j.beginObject();
    j.kv("workload", record.key.workload);
    j.kv("gpu", gpuModelName(record.key.gpu));
    j.kv("structure", targetStructureName(record.key.structure));
    j.kv("shard", std::uint64_t{record.key.shardIndex});
    j.kv("begin", record.key.injectionBegin);
    j.kv("end", record.key.injectionEnd);
    j.kv("campaign_seed", record.key.campaignSeed);
    j.kv("workload_seed", record.key.workloadSeed);
    // Shape keys only when non-default, so every pre-shape store stays
    // byte-identical to what this build writes for default campaigns.
    if (record.key.behavior != FaultBehavior::Transient)
        j.kv("behavior", faultBehaviorName(record.key.behavior));
    if (record.key.pattern != FaultPattern::SingleBit)
        j.kv("pattern", faultPatternName(record.key.pattern));
    j.kv("masked", record.counts.masked);
    j.kv("sdc", record.counts.sdc);
    j.kv("due", record.counts.due);
    j.kv("busy_seconds", record.counts.busySeconds);
    j.endObject();
}

bool
parseShardRecord(std::string_view line, ShardRecord& out)
{
    // A complete record ends in '}' — a truncated tail line does not.
    const auto close = line.find_last_not_of(" \t\r");
    if (close == std::string_view::npos || line[close] != '}')
        return false;

    std::string_view workload, gpu, structure;
    if (!findField(line, "workload", workload) ||
        !findField(line, "gpu", gpu) ||
        !findField(line, "structure", structure)) {
        return false;
    }

    ShardRecord r;
    r.key.workload = std::string(workload);
    if (!tryTargetStructureFromName(structure, r.key.structure))
        return false;
    try {
        r.key.gpu = gpuModelFromName(gpu);
    } catch (const FatalError&) {
        return false;
    }

    std::uint64_t shard = 0;
    if (!fieldU64(line, "shard", shard) ||
        !fieldU64(line, "begin", r.key.injectionBegin) ||
        !fieldU64(line, "end", r.key.injectionEnd) ||
        !fieldU64(line, "campaign_seed", r.key.campaignSeed) ||
        !fieldU64(line, "workload_seed", r.key.workloadSeed) ||
        !fieldU64(line, "masked", r.counts.masked) ||
        !fieldU64(line, "sdc", r.counts.sdc) ||
        !fieldU64(line, "due", r.counts.due) ||
        !fieldDouble(line, "busy_seconds", r.counts.busySeconds)) {
        return false;
    }
    r.key.shardIndex = static_cast<std::uint32_t>(shard);

    // Optional shape fields; absent means the default (pre-shape
    // stores carry no behavior/pattern keys).
    std::string_view behavior, pattern;
    if (findField(line, "behavior", behavior) &&
        !tryFaultBehaviorFromName(behavior, r.key.behavior)) {
        return false;
    }
    if (findField(line, "pattern", pattern) &&
        !tryFaultPatternFromName(pattern, r.key.pattern)) {
        return false;
    }

    // Internal consistency: counts must cover exactly the stated range.
    const std::uint64_t n = r.counts.total();
    if (r.key.injectionEnd < r.key.injectionBegin ||
        n != r.key.injectionEnd - r.key.injectionBegin) {
        return false;
    }
    out = std::move(r);
    return true;
}

std::vector<ShardRecord>
readShardStore(std::istream& is)
{
    std::vector<ShardRecord> records;
    // Size the record vector from the stream length up front (records
    // are one line each, ~120 bytes in practice) so a large store's
    // replay does not pay repeated reallocation + move of every parsed
    // record.  Unseekable streams just fall back to geometric growth.
    const auto pos = is.tellg();
    if (pos != std::istream::pos_type(-1)) {
        is.seekg(0, std::ios::end);
        const auto end = is.tellg();
        is.seekg(pos);
        if (end != std::istream::pos_type(-1) && end > pos)
            records.reserve(
                static_cast<std::size_t>(end - pos) / 120 + 1);
    }
    std::string line;
    line.reserve(256);
    while (std::getline(is, line)) {
        ShardRecord r;
        if (parseShardRecord(line, r))
            records.push_back(std::move(r));
    }
    return records;
}

} // namespace gpr
