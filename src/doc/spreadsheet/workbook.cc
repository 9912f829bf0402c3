#include "doc/spreadsheet/workbook.h"

#include <fstream>
#include <sstream>

#include "util/file.h"
#include "util/strings.h"

namespace slim::doc {

namespace {

// Escapes a string for one field of the native format (newline, tab,
// backslash).
std::string EscapeField(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

std::string UnescapeField(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '\\' && i + 1 < s.size()) {
      ++i;
      switch (s[i]) {
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        default: out.push_back(s[i]);
      }
    } else {
      out.push_back(s[i]);
    }
  }
  return out;
}

}  // namespace

// Adapter giving the formula evaluator access to workbook cells. Implements
// cycle detection: re-entering a cell mid-evaluation yields #CYCLE!.
class WorkbookResolver : public CellResolver {
 public:
  WorkbookResolver(Workbook* wb, std::string own_sheet)
      : wb_(wb), own_sheet_(std::move(own_sheet)) {}

  CellValue ResolveCell(const std::string& sheet, const CellRef& ref) override {
    const std::string& target = sheet.empty() ? own_sheet_ : sheet;
    return wb_->Evaluate(target, ref);
  }

  std::vector<CellValue> ResolveRange(const std::string& sheet,
                                      const RangeRef& range) override {
    const std::string& target = sheet.empty() ? own_sheet_ : sheet;
    return wb_->EvaluateRange(target, range);
  }

 private:
  Workbook* wb_;
  std::string own_sheet_;
};

Result<Worksheet*> Workbook::AddSheet(const std::string& name) {
  if (name.empty()) return Status::InvalidArgument("sheet name is empty");
  if (by_name_.count(name)) {
    return Status::AlreadyExists("sheet '" + name + "' already exists");
  }
  sheets_.push_back(std::make_unique<Worksheet>(name));
  Worksheet* ws = sheets_.back().get();
  by_name_[name] = ws;
  return ws;
}

Result<Worksheet*> Workbook::GetSheet(const std::string& name) {
  auto it = by_name_.find(name);
  if (it == by_name_.end()) {
    return Status::NotFound("no sheet named '" + name + "'");
  }
  return it->second;
}

Result<const Worksheet*> Workbook::GetSheet(const std::string& name) const {
  auto it = by_name_.find(name);
  if (it == by_name_.end()) {
    return Status::NotFound("no sheet named '" + name + "'");
  }
  return static_cast<const Worksheet*>(it->second);
}

Status Workbook::RemoveSheet(const std::string& name) {
  auto it = by_name_.find(name);
  if (it == by_name_.end()) {
    return Status::NotFound("no sheet named '" + name + "'");
  }
  by_name_.erase(it);
  for (auto vit = sheets_.begin(); vit != sheets_.end(); ++vit) {
    if ((*vit)->name() == name) {
      sheets_.erase(vit);
      break;
    }
  }
  cached_version_ = UINT64_MAX;  // force cache reset
  return Status::OK();
}

uint64_t Workbook::GlobalVersion() const {
  uint64_t v = sheets_.size();
  for (const auto& s : sheets_) v += s->version() * 1315423911ULL;
  return v;
}

void Workbook::MaybeResetCache() {
  uint64_t v = GlobalVersion();
  if (v != cached_version_) {
    memo_.clear();
    in_progress_.clear();
    cached_version_ = v;
  }
}

CellValue Workbook::Evaluate(const std::string& sheet, const CellRef& ref) {
  MaybeResetCache();
  auto sheet_it = by_name_.find(sheet);
  if (sheet_it == by_name_.end()) return CellError::kRef;
  Worksheet* ws = sheet_it->second;

  const Cell* cell = ws->GetCell(ref);
  if (cell == nullptr) return std::monostate{};
  if (!cell->has_formula()) return cell->value;

  CellKey key{sheet, ref.row, ref.col};
  auto memo_it = memo_.find(key);
  if (memo_it != memo_.end()) return memo_it->second;
  if (in_progress_.count(key)) return CellError::kCycle;

  in_progress_[key] = true;
  const Expr* ast = ws->GetFormulaAst(ref);
  CellValue result;
  if (ast == nullptr) {
    result = CellError::kValue;  // formula text without AST: corrupt load
  } else {
    WorkbookResolver resolver(this, sheet);
    result = EvaluateFormula(*ast, &resolver);
  }
  in_progress_.erase(key);
  memo_[key] = result;
  return result;
}

std::vector<CellValue> Workbook::EvaluateRange(const std::string& sheet,
                                               const RangeRef& range) {
  RangeRef r = range.Normalized();
  std::vector<CellValue> out;
  out.reserve(static_cast<size_t>(r.size()));
  for (int32_t row = r.start.row; row <= r.end.row; ++row) {
    for (int32_t col = r.start.col; col <= r.end.col; ++col) {
      out.push_back(Evaluate(sheet, CellRef{row, col}));
    }
  }
  return out;
}

std::string Workbook::DisplayText(const std::string& sheet,
                                  const CellRef& ref) {
  return CellValueText(Evaluate(sheet, ref));
}

std::string Workbook::Serialize() const {
  std::ostringstream out;
  out << "SLIMBOOK 1\n";
  out << "FILE " << EscapeField(file_name_) << "\n";
  for (const auto& ws : sheets_) {
    out << "SHEET " << EscapeField(ws->name()) << "\n";
    ws->ForEachCell([&](const CellRef& ref, const Cell& cell) {
      out << "CELL " << FormatCell(ref) << " ";
      if (cell.has_formula()) {
        out << "F " << EscapeField(cell.formula);
      } else if (IsNumber(cell.value)) {
        out << "N " << FormatNumber(std::get<double>(cell.value));
      } else if (IsBool(cell.value)) {
        out << "B " << (std::get<bool>(cell.value) ? "TRUE" : "FALSE");
      } else if (IsText(cell.value)) {
        out << "S " << EscapeField(std::get<std::string>(cell.value));
      } else if (IsError(cell.value)) {
        out << "E " << CellErrorText(std::get<CellError>(cell.value));
      } else {
        out << "S ";  // blank stored cell (unusual, but representable)
      }
      out << "\n";
    });
    out << "ENDSHEET\n";
  }
  return out.str();
}

Result<std::unique_ptr<Workbook>> Workbook::Deserialize(
    std::string_view text) {
  auto wb = std::make_unique<Workbook>();
  std::istringstream in{std::string(text)};
  std::string line;
  if (!std::getline(in, line) || Trim(line) != "SLIMBOOK 1") {
    return Status::ParseError("missing SLIMBOOK header");
  }
  Worksheet* current = nullptr;
  int line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    std::string_view lv = Trim(line);
    if (lv.empty()) continue;
    auto fail = [&](const std::string& what) -> Status {
      return Status::ParseError("workbook line " + std::to_string(line_no) +
                                ": " + what);
    };
    if (StartsWith(lv, "FILE ")) {
      wb->file_name_ = UnescapeField(lv.substr(5));
    } else if (StartsWith(lv, "SHEET ")) {
      Result<Worksheet*> ws = wb->AddSheet(UnescapeField(lv.substr(6)));
      if (!ws.ok()) return ws.status();
      current = ws.ValueOrDie();
    } else if (lv == "ENDSHEET") {
      current = nullptr;
    } else if (StartsWith(lv, "CELL ")) {
      if (current == nullptr) return fail("CELL outside SHEET");
      std::string_view rest = lv.substr(5);
      size_t sp1 = rest.find(' ');
      if (sp1 == std::string_view::npos) return fail("truncated CELL");
      SLIM_ASSIGN_OR_RETURN(CellRef ref, ParseCell(rest.substr(0, sp1)));
      std::string_view tagged = rest.substr(sp1 + 1);
      if (tagged.size() < 2 || tagged[1] != ' ') {
        // Allow "S " with empty payload (tagged == "S").
        if (tagged != "S") return fail("truncated CELL payload");
      }
      char tag = tagged[0];
      std::string payload =
          tagged.size() >= 2 ? UnescapeField(tagged.substr(2)) : "";
      switch (tag) {
        case 'F': {
          Status st = current->SetFormula(ref, payload);
          if (!st.ok()) return st.WithContext("line " + std::to_string(line_no));
          break;
        }
        case 'N': {
          double d;
          if (!ParseDouble(payload, &d)) return fail("bad number");
          current->SetValue(ref, d);
          break;
        }
        case 'B':
          current->SetValue(ref, payload == "TRUE");
          break;
        case 'S':
          current->SetValue(ref, payload);
          break;
        case 'E':
          // Persisted error literals reload as text of the error.
          current->SetValue(ref, payload);
          break;
        default:
          return fail(std::string("unknown cell tag '") + tag + "'");
      }
    } else {
      return fail("unrecognized record '" + std::string(lv) + "'");
    }
  }
  return wb;
}

Status Workbook::SaveToFile(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IoError("cannot open '" + path + "' for writing");
  out << Serialize();
  if (!out.good()) return Status::IoError("write failed for '" + path + "'");
  return Status::OK();
}

Result<std::unique_ptr<Workbook>> Workbook::LoadFromFile(
    const std::string& path) {
  SLIM_ASSIGN_OR_RETURN(std::string text, ReadFile(path));
  SLIM_ASSIGN_OR_RETURN(std::unique_ptr<Workbook> wb, Deserialize(text));
  if (wb->file_name().empty()) wb->set_file_name(path);
  return wb;
}

}  // namespace slim::doc
