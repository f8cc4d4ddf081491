#include "obs/exposition.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace sofa {
namespace obs {
namespace {

// Number formatting shared by both renderers: integral values print
// without a decimal point (stable golden strings, no "5.0" vs "5"
// drift), everything else through %.10g. Non-finite values render as 0 —
// neither exposition grammar admits them.
std::string FormatNumber(double value) {
  if (!std::isfinite(value)) {
    return "0";
  }
  char buffer[64];
  if (value == std::floor(value) && std::fabs(value) < 1e15) {
    std::snprintf(buffer, sizeof(buffer), "%lld",
                  static_cast<long long>(value));
  } else {
    std::snprintf(buffer, sizeof(buffer), "%.10g", value);
  }
  return buffer;
}

std::string FormatCount(std::uint64_t value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%llu",
                static_cast<unsigned long long>(value));
  return buffer;
}

// Prometheus label-value escaping: backslash, double quote, newline.
std::string EscapePromValue(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

std::string EscapeJson(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out;
}

// {k="v",...} with an optional extra label appended (histogram le).
std::string PromLabels(const Labels& labels, const std::string& extra_key,
                       const std::string& extra_value) {
  if (labels.empty() && extra_key.empty()) {
    return "";
  }
  std::string out = "{";
  bool first = true;
  for (const auto& label : labels) {
    if (!first) out += ",";
    first = false;
    out += label.first + "=\"" + EscapePromValue(label.second) + "\"";
  }
  if (!extra_key.empty()) {
    if (!first) out += ",";
    out += extra_key + "=\"" + EscapePromValue(extra_value) + "\"";
  }
  out += "}";
  return out;
}

const char* KindName(InstrumentKind kind) {
  switch (kind) {
    case InstrumentKind::kCounter: return "counter";
    case InstrumentKind::kGauge: return "gauge";
    case InstrumentKind::kHistogram: return "histogram";
  }
  return "counter";
}

std::string DisplayName(const InstrumentSnapshot& snap) {
  std::string out = snap.name;
  if (!snap.labels.empty()) {
    out += "{";
    for (std::size_t i = 0; i < snap.labels.size(); ++i) {
      if (i) out += ",";
      out += snap.labels[i].first + "=" + snap.labels[i].second;
    }
    out += "}";
  }
  return out;
}

// ------------------------------------------------------------ JSON parse
//
// Minimal recursive-descent JSON reader — just enough to round-trip the
// RenderJson schema for `sofa_cli stats`. Not a general-purpose parser
// (no \uXXXX decoding beyond pass-through, no duplicate-key policy).

struct JsonValue {
  enum Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  const JsonValue* Find(const std::string& key) const {
    for (const auto& member : object) {
      if (member.first == key) return &member.second;
    }
    return nullptr;
  }
};

class JsonReader {
 public:
  explicit JsonReader(const std::string& text) : text_(text) {}

  bool Parse(JsonValue* out) {
    SkipSpace();
    if (!ParseValue(out)) return false;
    SkipSpace();
    if (pos_ != text_.size()) return Fail("trailing content");
    return true;
  }

  const std::string& error() const { return error_; }

 private:
  bool Fail(const char* message) {
    if (error_.empty()) {
      error_ = std::string(message) + " at offset " + FormatCount(pos_);
    }
    return false;
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char expect) {
    if (pos_ < text_.size() && text_[pos_] == expect) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ParseValue(JsonValue* out) {
    SkipSpace();
    if (pos_ >= text_.size()) return Fail("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{') return ParseObject(out);
    if (c == '[') return ParseArray(out);
    if (c == '"') {
      out->type = JsonValue::kString;
      return ParseString(&out->str);
    }
    if (c == 't' || c == 'f') return ParseLiteral(out);
    if (c == 'n') return ParseLiteral(out);
    return ParseNumber(out);
  }

  bool ParseLiteral(JsonValue* out) {
    static const struct { const char* text; JsonValue::Type type; bool b; }
        kLiterals[] = {{"true", JsonValue::kBool, true},
                       {"false", JsonValue::kBool, false},
                       {"null", JsonValue::kNull, false}};
    for (const auto& lit : kLiterals) {
      const std::size_t len = std::string(lit.text).size();
      if (text_.compare(pos_, len, lit.text) == 0) {
        out->type = lit.type;
        out->boolean = lit.b;
        pos_ += len;
        return true;
      }
    }
    return Fail("invalid literal");
  }

  bool ParseNumber(JsonValue* out) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return Fail("invalid number");
    char* end = nullptr;
    const std::string token = text_.substr(start, pos_ - start);
    out->number = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') return Fail("invalid number");
    out->type = JsonValue::kNumber;
    return true;
  }

  bool ParseString(std::string* out) {
    if (!Consume('"')) return Fail("expected string");
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= text_.size()) return Fail("unterminated escape");
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': *out += '"'; break;
          case '\\': *out += '\\'; break;
          case '/': *out += '/'; break;
          case 'n': *out += '\n'; break;
          case 'r': *out += '\r'; break;
          case 't': *out += '\t'; break;
          case 'b': *out += '\b'; break;
          case 'f': *out += '\f'; break;
          case 'u':
            // Pass \uXXXX through undecoded; the stats schema never
            // emits non-ASCII escapes.
            if (pos_ + 4 > text_.size()) return Fail("bad \\u escape");
            *out += "\\u" + text_.substr(pos_, 4);
            pos_ += 4;
            break;
          default: return Fail("bad escape");
        }
      } else {
        *out += c;
      }
    }
    return Fail("unterminated string");
  }

  bool ParseArray(JsonValue* out) {
    Consume('[');
    out->type = JsonValue::kArray;
    SkipSpace();
    if (Consume(']')) return true;
    while (true) {
      JsonValue element;
      if (!ParseValue(&element)) return false;
      out->array.push_back(std::move(element));
      SkipSpace();
      if (Consume(']')) return true;
      if (!Consume(',')) return Fail("expected , or ] in array");
    }
  }

  bool ParseObject(JsonValue* out) {
    Consume('{');
    out->type = JsonValue::kObject;
    SkipSpace();
    if (Consume('}')) return true;
    while (true) {
      SkipSpace();
      std::string key;
      if (!ParseString(&key)) return false;
      SkipSpace();
      if (!Consume(':')) return Fail("expected : in object");
      JsonValue value;
      if (!ParseValue(&value)) return false;
      out->object.emplace_back(std::move(key), std::move(value));
      SkipSpace();
      if (Consume('}')) return true;
      if (!Consume(',')) return Fail("expected , or } in object");
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  std::string error_;
};

bool SetError(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

double NumberOr(const JsonValue* value, double fallback) {
  return value != nullptr && value->type == JsonValue::kNumber ? value->number
                                                              : fallback;
}

}  // namespace

std::string RenderPrometheus(
    const std::vector<InstrumentSnapshot>& snapshot) {
  std::string out;
  std::string previous_name;
  for (const InstrumentSnapshot& snap : snapshot) {
    if (snap.name != previous_name) {
      previous_name = snap.name;
      if (!snap.help.empty()) {
        out += "# HELP " + snap.name + " " + snap.help + "\n";
      }
      out += "# TYPE " + snap.name + " ";
      out += KindName(snap.kind);
      out += "\n";
    }
    switch (snap.kind) {
      case InstrumentKind::kCounter:
        out += snap.name + PromLabels(snap.labels, "", "") + " " +
               FormatCount(snap.counter) + "\n";
        break;
      case InstrumentKind::kGauge:
        out += snap.name + PromLabels(snap.labels, "", "") + " " +
               FormatNumber(snap.gauge) + "\n";
        break;
      case InstrumentKind::kHistogram: {
        for (const HistogramBucket& bucket : snap.buckets) {
          const std::string le =
              bucket.overflow ? "+Inf" : FormatNumber(bucket.upper_edge);
          out += snap.name + "_bucket" + PromLabels(snap.labels, "le", le) +
                 " " + FormatCount(bucket.cumulative) + "\n";
        }
        out += snap.name + "_sum" + PromLabels(snap.labels, "", "") + " " +
               FormatNumber(snap.sum) + "\n";
        out += snap.name + "_count" + PromLabels(snap.labels, "", "") + " " +
               FormatCount(snap.count) + "\n";
        break;
      }
    }
  }
  return out;
}

std::string RenderJson(const std::vector<InstrumentSnapshot>& snapshot) {
  std::string out = "{\n  \"metrics\": [";
  for (std::size_t i = 0; i < snapshot.size(); ++i) {
    const InstrumentSnapshot& snap = snapshot[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"name\": \"" + EscapeJson(snap.name) + "\", \"type\": \"";
    out += KindName(snap.kind);
    out += "\"";
    if (!snap.labels.empty()) {
      out += ", \"labels\": {";
      for (std::size_t j = 0; j < snap.labels.size(); ++j) {
        if (j) out += ", ";
        out += "\"" + EscapeJson(snap.labels[j].first) + "\": \"" +
               EscapeJson(snap.labels[j].second) + "\"";
      }
      out += "}";
    }
    if (!snap.help.empty()) {
      out += ", \"help\": \"" + EscapeJson(snap.help) + "\"";
    }
    switch (snap.kind) {
      case InstrumentKind::kCounter:
        out += ", \"value\": " + FormatCount(snap.counter);
        break;
      case InstrumentKind::kGauge:
        out += ", \"value\": " + FormatNumber(snap.gauge);
        break;
      case InstrumentKind::kHistogram: {
        out += ", \"count\": " + FormatCount(snap.count);
        out += ", \"sum\": " + FormatNumber(snap.sum);
        out += ", \"max\": " + FormatNumber(snap.max);
        out += ", \"p50\": " + FormatNumber(snap.p50);
        out += ", \"p95\": " + FormatNumber(snap.p95);
        out += ", \"p99\": " + FormatNumber(snap.p99);
        out += ", \"buckets\": [";
        for (std::size_t j = 0; j < snap.buckets.size(); ++j) {
          const HistogramBucket& bucket = snap.buckets[j];
          if (j) out += ", ";
          out += "{\"le\": ";
          out += bucket.overflow ? "\"+Inf\""
                                 : FormatNumber(bucket.upper_edge);
          out += ", \"count\": " + FormatCount(bucket.cumulative) + "}";
        }
        out += "]";
        break;
      }
    }
    out += "}";
  }
  out += "\n  ]\n}\n";
  return out;
}

bool ParseStatsJson(const std::string& text,
                    std::vector<InstrumentSnapshot>* out,
                    std::string* error) {
  out->clear();
  JsonValue root;
  JsonReader reader(text);
  if (!reader.Parse(&root)) {
    return SetError(error, reader.error());
  }
  if (root.type != JsonValue::kObject) {
    return SetError(error, "root is not an object");
  }
  const JsonValue* metrics = root.Find("metrics");
  if (metrics == nullptr || metrics->type != JsonValue::kArray) {
    return SetError(error, "missing \"metrics\" array");
  }
  for (const JsonValue& metric : metrics->array) {
    if (metric.type != JsonValue::kObject) {
      return SetError(error, "metric entry is not an object");
    }
    InstrumentSnapshot snap;
    const JsonValue* name = metric.Find("name");
    const JsonValue* type = metric.Find("type");
    if (name == nullptr || name->type != JsonValue::kString ||
        type == nullptr || type->type != JsonValue::kString) {
      return SetError(error, "metric entry missing name/type");
    }
    snap.name = name->str;
    if (type->str == "counter") {
      snap.kind = InstrumentKind::kCounter;
      snap.counter =
          static_cast<std::uint64_t>(NumberOr(metric.Find("value"), 0.0));
    } else if (type->str == "gauge") {
      snap.kind = InstrumentKind::kGauge;
      snap.gauge = NumberOr(metric.Find("value"), 0.0);
    } else if (type->str == "histogram") {
      snap.kind = InstrumentKind::kHistogram;
      snap.count =
          static_cast<std::uint64_t>(NumberOr(metric.Find("count"), 0.0));
      snap.sum = NumberOr(metric.Find("sum"), 0.0);
      snap.max = NumberOr(metric.Find("max"), 0.0);
      snap.p50 = NumberOr(metric.Find("p50"), 0.0);
      snap.p95 = NumberOr(metric.Find("p95"), 0.0);
      snap.p99 = NumberOr(metric.Find("p99"), 0.0);
      const JsonValue* buckets = metric.Find("buckets");
      if (buckets != nullptr && buckets->type == JsonValue::kArray) {
        for (const JsonValue& entry : buckets->array) {
          if (entry.type != JsonValue::kObject) continue;
          HistogramBucket bucket;
          const JsonValue* le = entry.Find("le");
          if (le != nullptr && le->type == JsonValue::kString) {
            bucket.overflow = true;
          } else {
            bucket.upper_edge = NumberOr(le, 0.0);
          }
          bucket.cumulative =
              static_cast<std::uint64_t>(NumberOr(entry.Find("count"), 0.0));
          snap.buckets.push_back(bucket);
        }
      }
    } else {
      return SetError(error, "unknown metric type: " + type->str);
    }
    const JsonValue* help = metric.Find("help");
    if (help != nullptr && help->type == JsonValue::kString) {
      snap.help = help->str;
    }
    const JsonValue* labels = metric.Find("labels");
    if (labels != nullptr && labels->type == JsonValue::kObject) {
      for (const auto& member : labels->object) {
        if (member.second.type == JsonValue::kString) {
          snap.labels.emplace_back(member.first, member.second.str);
        }
      }
    }
    out->push_back(std::move(snap));
  }
  return true;
}

std::string RenderPretty(const std::vector<InstrumentSnapshot>& snapshot) {
  std::string counters, gauges, histograms;
  char line[512];
  for (const InstrumentSnapshot& snap : snapshot) {
    const std::string display = DisplayName(snap);
    switch (snap.kind) {
      case InstrumentKind::kCounter:
        std::snprintf(line, sizeof(line), "  %-56s %s\n", display.c_str(),
                      FormatCount(snap.counter).c_str());
        counters += line;
        break;
      case InstrumentKind::kGauge:
        std::snprintf(line, sizeof(line), "  %-56s %s\n", display.c_str(),
                      FormatNumber(snap.gauge).c_str());
        gauges += line;
        break;
      case InstrumentKind::kHistogram: {
        const double mean =
            snap.count == 0 ? 0.0
                            : snap.sum / static_cast<double>(snap.count);
        std::snprintf(line, sizeof(line),
                      "  %-56s count=%s mean=%.4g p50=%.4g p95=%.4g "
                      "p99=%.4g max=%.4g\n",
                      display.c_str(), FormatCount(snap.count).c_str(), mean,
                      snap.p50, snap.p95, snap.p99, snap.max);
        histograms += line;
        break;
      }
    }
  }
  std::string out;
  if (!counters.empty()) out += "counters:\n" + counters;
  if (!gauges.empty()) out += "gauges:\n" + gauges;
  if (!histograms.empty()) out += "histograms:\n" + histograms;
  if (out.empty()) out = "(no metrics)\n";
  return out;
}

}  // namespace obs
}  // namespace sofa
