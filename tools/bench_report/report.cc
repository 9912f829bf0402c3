#include "report.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>

namespace slim::tools {

namespace {

// ---------------------------------------------------------------------------
// Minimal JSON reader — just enough for slim-bench-v1 documents. Kept local
// to the tool: the production tree has emitters only, and keeping the
// reader here means a serializer bug cannot hide behind a forgiving shared
// parser.
// ---------------------------------------------------------------------------

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  const JsonValue* Find(const std::string& key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class JsonParser {
 public:
  JsonParser(const std::string& text, std::string* error)
      : text_(text), error_(error) {}

  bool Parse(JsonValue* out) {
    if (!ParseValue(out)) return false;
    SkipSpace();
    if (i_ != text_.size()) return Fail("trailing characters after document");
    return true;
  }

 private:
  bool Fail(const std::string& why) {
    if (error_->empty()) {
      *error_ = "json: " + why + " (near offset " + std::to_string(i_) + ")";
    }
    return false;
  }

  void SkipSpace() {
    while (i_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[i_]))) {
      ++i_;
    }
  }

  bool ParseValue(JsonValue* out) {
    SkipSpace();
    if (i_ >= text_.size()) return Fail("unexpected end of input");
    char c = text_[i_];
    if (c == '{') return ParseObject(out);
    if (c == '[') return ParseArray(out);
    if (c == '"') {
      out->kind = JsonValue::Kind::kString;
      return ParseString(&out->string);
    }
    if (c == 't' || c == 'f') return ParseBool(out);
    if (c == 'n') return ParseNull(out);
    return ParseNumber(out);
  }

  bool ParseLiteral(const char* word) {
    size_t len = std::strlen(word);
    if (text_.compare(i_, len, word) != 0) {
      return Fail(std::string("expected '") + word + "'");
    }
    i_ += len;
    return true;
  }

  bool ParseBool(JsonValue* out) {
    out->kind = JsonValue::Kind::kBool;
    if (text_[i_] == 't') {
      out->boolean = true;
      return ParseLiteral("true");
    }
    out->boolean = false;
    return ParseLiteral("false");
  }

  bool ParseNull(JsonValue* out) {
    out->kind = JsonValue::Kind::kNull;
    return ParseLiteral("null");
  }

  bool ParseNumber(JsonValue* out) {
    size_t start = i_;
    if (i_ < text_.size() && (text_[i_] == '-' || text_[i_] == '+')) ++i_;
    while (i_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[i_])) ||
            text_[i_] == '.' || text_[i_] == 'e' || text_[i_] == 'E' ||
            text_[i_] == '-' || text_[i_] == '+')) {
      ++i_;
    }
    if (i_ == start) return Fail("expected a value");
    try {
      out->number = std::stod(text_.substr(start, i_ - start));
    } catch (...) {
      return Fail("malformed number");
    }
    out->kind = JsonValue::Kind::kNumber;
    return true;
  }

  bool ParseString(std::string* out) {
    if (text_[i_] != '"') return Fail("expected '\"'");
    ++i_;
    out->clear();
    while (i_ < text_.size()) {
      char c = text_[i_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (i_ >= text_.size()) break;
        char esc = text_[i_++];
        switch (esc) {
          case '"': out->push_back('"'); break;
          case '\\': out->push_back('\\'); break;
          case '/': out->push_back('/'); break;
          case 'n': out->push_back('\n'); break;
          case 't': out->push_back('\t'); break;
          case 'r': out->push_back('\r'); break;
          case 'b': out->push_back('\b'); break;
          case 'f': out->push_back('\f'); break;
          case 'u': {
            if (i_ + 4 > text_.size()) return Fail("truncated \\u escape");
            unsigned code = 0;
            for (int k = 0; k < 4; ++k) {
              char h = text_[i_++];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else return Fail("bad \\u escape");
            }
            // The emitter only writes \u00XX control escapes.
            out->push_back(static_cast<char>(code & 0xff));
            break;
          }
          default: return Fail("unknown escape");
        }
      } else {
        out->push_back(c);
      }
    }
    return Fail("unterminated string");
  }

  bool ParseArray(JsonValue* out) {
    out->kind = JsonValue::Kind::kArray;
    ++i_;  // '['
    SkipSpace();
    if (i_ < text_.size() && text_[i_] == ']') {
      ++i_;
      return true;
    }
    while (true) {
      JsonValue element;
      if (!ParseValue(&element)) return false;
      out->array.push_back(std::move(element));
      SkipSpace();
      if (i_ >= text_.size()) return Fail("unterminated array");
      if (text_[i_] == ',') {
        ++i_;
        continue;
      }
      if (text_[i_] == ']') {
        ++i_;
        return true;
      }
      return Fail("expected ',' or ']'");
    }
  }

  bool ParseObject(JsonValue* out) {
    out->kind = JsonValue::Kind::kObject;
    ++i_;  // '{'
    SkipSpace();
    if (i_ < text_.size() && text_[i_] == '}') {
      ++i_;
      return true;
    }
    while (true) {
      SkipSpace();
      std::string key;
      if (i_ >= text_.size() || !ParseString(&key)) {
        return Fail("expected object key");
      }
      SkipSpace();
      if (i_ >= text_.size() || text_[i_] != ':') return Fail("expected ':'");
      ++i_;
      JsonValue value;
      if (!ParseValue(&value)) return false;
      out->object.emplace_back(std::move(key), std::move(value));
      SkipSpace();
      if (i_ >= text_.size()) return Fail("unterminated object");
      if (text_[i_] == ',') {
        ++i_;
        continue;
      }
      if (text_[i_] == '}') {
        ++i_;
        return true;
      }
      return Fail("expected ',' or '}'");
    }
  }

  const std::string& text_;
  std::string* error_;
  size_t i_ = 0;
};

double NumberOr(const JsonValue* v, double fallback) {
  return v != nullptr && v->kind == JsonValue::Kind::kNumber ? v->number
                                                             : fallback;
}

std::string StringOr(const JsonValue* v, const std::string& fallback) {
  return v != nullptr && v->kind == JsonValue::Kind::kString ? v->string
                                                             : fallback;
}

}  // namespace

bool ParseBenchJson(const std::string& text, BenchFile* out,
                    std::string* error) {
  error->clear();
  JsonValue root;
  JsonParser parser(text, error);
  if (!parser.Parse(&root)) return false;
  if (root.kind != JsonValue::Kind::kObject) {
    *error = "top-level value is not an object";
    return false;
  }
  out->schema = StringOr(root.Find("schema"), "");
  if (out->schema != "slim-bench-v1") {
    *error = "unsupported schema '" + out->schema + "'";
    return false;
  }
  out->bench = StringOr(root.Find("bench"), "");
  out->git_sha = StringOr(root.Find("git_sha"), "unknown");
  out->build_flags = StringOr(root.Find("build_flags"), "");
  const JsonValue* obs = root.Find("obs_enabled");
  out->obs_enabled =
      obs != nullptr && obs->kind == JsonValue::Kind::kBool && obs->boolean;
  out->benchmarks.clear();
  const JsonValue* benches = root.Find("benchmarks");
  if (benches == nullptr || benches->kind != JsonValue::Kind::kArray) {
    *error = "missing 'benchmarks' array";
    return false;
  }
  for (const JsonValue& b : benches->array) {
    if (b.kind != JsonValue::Kind::kObject) {
      *error = "benchmark entry is not an object";
      return false;
    }
    BenchmarkResult result;
    result.name = StringOr(b.Find("name"), "");
    if (result.name.empty()) {
      *error = "benchmark entry without a name";
      return false;
    }
    result.time_unit = StringOr(b.Find("time_unit"), "ns");
    result.iterations = static_cast<uint64_t>(NumberOr(b.Find("iterations"), 0));
    result.repetitions =
        static_cast<uint64_t>(NumberOr(b.Find("repetitions"), 0));
    result.real_p50 = NumberOr(b.Find("real_p50"), 0);
    result.real_p95 = NumberOr(b.Find("real_p95"), 0);
    result.cpu_p50 = NumberOr(b.Find("cpu_p50"), 0);
    result.cpu_p95 = NumberOr(b.Find("cpu_p95"), 0);
    if (const JsonValue* counters = b.Find("counters");
        counters != nullptr && counters->kind == JsonValue::Kind::kObject) {
      for (const auto& [key, value] : counters->object) {
        result.counters.emplace_back(key, NumberOr(&value, 0));
      }
    }
    out->benchmarks.push_back(std::move(result));
  }
  out->rusage = BenchRusageInfo{};
  if (const JsonValue* usage = root.Find("rusage");
      usage != nullptr && usage->kind == JsonValue::Kind::kObject) {
    out->rusage.present = true;
    out->rusage.max_rss_kb =
        static_cast<uint64_t>(NumberOr(usage->Find("max_rss_kb"), 0));
    out->rusage.user_cpu_us =
        static_cast<uint64_t>(NumberOr(usage->Find("user_cpu_us"), 0));
    out->rusage.sys_cpu_us =
        static_cast<uint64_t>(NumberOr(usage->Find("sys_cpu_us"), 0));
  }
  return true;
}

bool LoadBenchJson(const std::string& path, BenchFile* out,
                   std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot open " + path;
    return false;
  }
  std::ostringstream text;
  text << in.rdbuf();
  if (!ParseBenchJson(text.str(), out, error)) {
    *error = path + ": " + *error;
    return false;
  }
  return true;
}

DiffReport DiffBenchFiles(const BenchFile& older, const BenchFile& newer,
                          double threshold_pct) {
  DiffReport report;
  report.threshold_pct = threshold_pct;
  if (older.build_flags != newer.build_flags) {
    report.incomparable += "build_flags '" + older.build_flags + "' vs '" +
                           newer.build_flags + "'";
  }
  if (older.obs_enabled != newer.obs_enabled) {
    if (!report.incomparable.empty()) report.incomparable += ", ";
    report.incomparable +=
        std::string("obs_enabled ") + (older.obs_enabled ? "true" : "false") +
        " vs " + (newer.obs_enabled ? "true" : "false");
  }
  report.comparable = report.incomparable.empty();
  report.provenance = older.git_sha + " -> " + newer.git_sha;
  report.old_rusage = older.rusage;
  report.new_rusage = newer.rusage;
  std::map<std::string, const BenchmarkResult*> old_by_name;
  for (const BenchmarkResult& b : older.benchmarks) old_by_name[b.name] = &b;
  std::map<std::string, bool> seen;
  for (const BenchmarkResult& b : newer.benchmarks) {
    DiffRow row;
    row.name = b.name;
    row.new_p50 = b.real_p50;
    row.new_p95 = b.real_p95;
    auto it = old_by_name.find(b.name);
    if (it == old_by_name.end()) {
      row.only_in_new = true;
    } else {
      seen[b.name] = true;
      row.old_p50 = it->second->real_p50;
      row.old_p95 = it->second->real_p95;
      row.old_cpu_p50 = it->second->cpu_p50;
      row.new_cpu_p50 = b.cpu_p50;
      if (row.old_p50 > 0) {
        row.delta_pct = (row.new_p50 - row.old_p50) / row.old_p50 * 100.0;
        row.regression = row.delta_pct > threshold_pct;
      }
      // CPU-time drift rides along for the eye; only real_p50 gates.
      if (row.old_cpu_p50 > 0) {
        row.cpu_delta_pct =
            (row.new_cpu_p50 - row.old_cpu_p50) / row.old_cpu_p50 * 100.0;
      }
      if (row.regression) ++report.regressions;
    }
    report.rows.push_back(std::move(row));
  }
  for (const BenchmarkResult& b : older.benchmarks) {
    if (seen.count(b.name)) continue;
    DiffRow row;
    row.name = b.name;
    row.only_in_old = true;
    row.old_p50 = b.real_p50;
    row.old_p95 = b.real_p95;
    report.rows.push_back(std::move(row));
  }
  return report;
}

std::string FormatDiff(const DiffReport& report) {
  std::ostringstream out;
  out << "bench_report: " << report.provenance << ", threshold "
      << report.threshold_pct << "% on real_p50\n";
  if (!report.comparable) {
    out << "WARNING: not comparable (" << report.incomparable
        << ") — counters and timings are not apples-to-apples\n";
  }
  char line[256];
  for (const DiffRow& row : report.rows) {
    if (row.only_in_new) {
      std::snprintf(line, sizeof(line), "  NEW      %-48s p50 %.3f\n",
                    row.name.c_str(), row.new_p50);
    } else if (row.only_in_old) {
      std::snprintf(line, sizeof(line), "  GONE     %-48s p50 %.3f\n",
                    row.name.c_str(), row.old_p50);
    } else if (row.old_cpu_p50 > 0) {
      std::snprintf(line, sizeof(line),
                    "  %-8s %-48s p50 %.3f -> %.3f (%+.1f%%)  cpu %+.1f%%\n",
                    row.regression ? "REGRESS" : "ok", row.name.c_str(),
                    row.old_p50, row.new_p50, row.delta_pct,
                    row.cpu_delta_pct);
    } else {
      std::snprintf(line, sizeof(line),
                    "  %-8s %-48s p50 %.3f -> %.3f (%+.1f%%)\n",
                    row.regression ? "REGRESS" : "ok", row.name.c_str(),
                    row.old_p50, row.new_p50, row.delta_pct);
    }
    out << line;
  }
  if (report.old_rusage.present && report.new_rusage.present) {
    const BenchRusageInfo& o = report.old_rusage;
    const BenchRusageInfo& n = report.new_rusage;
    char usage_line[256];
    std::snprintf(usage_line, sizeof(usage_line),
                  "rusage: max_rss %llu -> %llu KiB, user_cpu %llu -> %llu "
                  "us, sys_cpu %llu -> %llu us (informational)\n",
                  static_cast<unsigned long long>(o.max_rss_kb),
                  static_cast<unsigned long long>(n.max_rss_kb),
                  static_cast<unsigned long long>(o.user_cpu_us),
                  static_cast<unsigned long long>(n.user_cpu_us),
                  static_cast<unsigned long long>(o.sys_cpu_us),
                  static_cast<unsigned long long>(n.sys_cpu_us));
    out << usage_line;
  }
  out << (report.regressions == 0
              ? "no regressions."
              : std::to_string(report.regressions) + " regression(s).")
      << "\n";
  return out.str();
}

int DiffExitCode(const DiffReport& report, bool gating) {
  if (!gating) return 0;
  if (!report.comparable) return 2;
  return report.regressions > 0 ? 1 : 0;
}

}  // namespace slim::tools
