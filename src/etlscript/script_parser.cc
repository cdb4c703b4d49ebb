#include <cctype>

#include "common/string_util.h"
#include "etlscript/script_ast.h"

namespace hyperq::etlscript {

using common::EqualsIgnoreCase;
using common::Result;
using common::Status;

namespace {

/// Raw statement: text of one ';'-terminated unit plus its starting line.
struct RawStatement {
  std::string text;
  size_t line;
};

/// Splits the script into ';'-terminated statements, respecting single-quoted
/// strings and stripping -- and /* */ comments.
Result<std::vector<RawStatement>> SplitStatements(std::string_view text) {
  std::vector<RawStatement> out;
  std::string current;
  size_t line = 1;
  size_t stmt_line = 1;
  size_t i = 0;
  const size_t n = text.size();
  bool in_string = false;
  while (i < n) {
    char c = text[i];
    if (c == '\n') ++line;
    if (in_string) {
      current += c;
      if (c == '\'') {
        if (i + 1 < n && text[i + 1] == '\'') {
          current += text[++i];
        } else {
          in_string = false;
        }
      }
      ++i;
      continue;
    }
    if (c == '\'') {
      in_string = true;
      current += c;
      ++i;
      continue;
    }
    if (c == '-' && i + 1 < n && text[i + 1] == '-') {
      while (i < n && text[i] != '\n') ++i;
      continue;
    }
    if (c == '/' && i + 1 < n && text[i + 1] == '*') {
      size_t start_line = line;
      i += 2;
      while (i + 1 < n && !(text[i] == '*' && text[i + 1] == '/')) {
        if (text[i] == '\n') ++line;
        ++i;
      }
      if (i + 1 >= n) {
        return Status::ParseError("unterminated comment starting at line " +
                                  std::to_string(start_line));
      }
      i += 2;
      continue;
    }
    if (c == ';') {
      std::string trimmed = common::Trim(current);
      if (!trimmed.empty()) out.push_back(RawStatement{std::move(trimmed), stmt_line});
      current.clear();
      stmt_line = line;
      ++i;
      continue;
    }
    if (common::TrimView(current).empty() && !std::isspace(static_cast<unsigned char>(c))) {
      stmt_line = line;
    }
    current += c;
    ++i;
  }
  if (in_string) return Status::ParseError("unterminated string literal in script");
  if (!common::Trim(current).empty()) {
    return Status::ParseError("script ends with an unterminated statement (missing ';')");
  }
  return out;
}

/// Whitespace-separated word iterator with quoted-literal support.
class WordScanner {
 public:
  explicit WordScanner(std::string_view text) : text_(text) {}

  /// Next word; words are whitespace-separated; a quoted 'x' yields x with
  /// quote markers preserved via was_quoted().
  bool Next(std::string* word, bool* was_quoted = nullptr) {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    if (pos_ >= text_.size()) return false;
    if (text_[pos_] == '\'') {
      ++pos_;
      std::string out;
      while (pos_ < text_.size() && text_[pos_] != '\'') out += text_[pos_++];
      if (pos_ < text_.size()) ++pos_;
      *word = std::move(out);
      if (was_quoted != nullptr) *was_quoted = true;
      return true;
    }
    std::string out;
    // Parenthesized type parameters stay glued to the word: varchar(5).
    int depth = 0;
    while (pos_ < text_.size() &&
           (depth > 0 || !std::isspace(static_cast<unsigned char>(text_[pos_])))) {
      char c = text_[pos_];
      if (c == '(') ++depth;
      if (c == ')') --depth;
      out += c;
      ++pos_;
    }
    *word = std::move(out);
    if (was_quoted != nullptr) *was_quoted = false;
    return true;
  }

  std::string Rest() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    return std::string(text_.substr(pos_));
  }

 private:
  std::string_view text_;
  size_t pos_ = 0;
};

Status ParseError(size_t line, const std::string& msg) {
  return Status::ParseError("script line " + std::to_string(line) + ": " + msg);
}

/// A count or setting value: a base-10 integer, a ParseError otherwise.
Result<int64_t> ParseInteger(size_t line, const std::string& word) {
  int64_t n = 0;
  if (!common::ParseNumber(word, &n)) return ParseError(line, "expected an integer, got: " + word);
  return n;
}

Result<Command> ParseDotCommand(const RawStatement& raw) {
  Command cmd;
  cmd.line = raw.line;
  WordScanner scan(raw.text);
  std::string word;
  scan.Next(&word);  // the .command word
  std::string lower = common::ToLower(word);

  if (lower == ".logon") {
    // host/user,pass
    std::string rest = scan.Rest();
    size_t slash = rest.find('/');
    size_t comma = rest.find(',');
    if (slash == std::string::npos || comma == std::string::npos || comma < slash) {
      return ParseError(raw.line, ".logon expects host/user,password");
    }
    cmd.kind = CommandKind::kLogon;
    cmd.host = common::Trim(rest.substr(0, slash));
    cmd.user = common::Trim(rest.substr(slash + 1, comma - slash - 1));
    cmd.password = common::Trim(rest.substr(comma + 1));
    return cmd;
  }
  if (lower == ".logoff") {
    cmd.kind = CommandKind::kLogoff;
    return cmd;
  }
  if (lower == ".sessions") {
    if (!scan.Next(&word)) return ParseError(raw.line, ".sessions expects a count");
    cmd.kind = CommandKind::kSessions;
    HQ_ASSIGN_OR_RETURN(cmd.number, ParseInteger(raw.line, word));
    if (cmd.number < 1 || cmd.number > 64) {
      return ParseError(raw.line, ".sessions count out of range (1..64)");
    }
    return cmd;
  }
  if (lower == ".layout") {
    if (!scan.Next(&cmd.name)) return ParseError(raw.line, ".layout expects a name");
    cmd.kind = CommandKind::kLayout;
    return cmd;
  }
  if (lower == ".field") {
    if (!scan.Next(&cmd.name)) return ParseError(raw.line, ".field expects a name");
    cmd.type_text = scan.Rest();
    if (cmd.type_text.empty()) return ParseError(raw.line, ".field expects a type");
    cmd.kind = CommandKind::kField;
    return cmd;
  }
  if (lower == ".begin") {
    if (!scan.Next(&word)) return ParseError(raw.line, ".begin expects import/export");
    if (EqualsIgnoreCase(word, "import")) {
      cmd.kind = CommandKind::kBeginImport;
      // tables TARGET [errortables ET UV]
      while (scan.Next(&word)) {
        if (EqualsIgnoreCase(word, "tables")) {
          if (!scan.Next(&cmd.target_table)) {
            return ParseError(raw.line, "tables expects a table name");
          }
        } else if (EqualsIgnoreCase(word, "errortables")) {
          if (!scan.Next(&cmd.error_table_et) || !scan.Next(&cmd.error_table_uv)) {
            return ParseError(raw.line, "errortables expects two table names");
          }
        } else {
          return ParseError(raw.line, "unexpected word in .begin import: " + word);
        }
      }
      if (cmd.target_table.empty()) {
        return ParseError(raw.line, ".begin import requires tables <target>");
      }
      return cmd;
    }
    if (EqualsIgnoreCase(word, "export")) {
      cmd.kind = CommandKind::kBeginExport;
      while (scan.Next(&word)) {
        if (EqualsIgnoreCase(word, "outfile")) {
          if (!scan.Next(&cmd.file)) return ParseError(raw.line, "outfile expects a file name");
        } else if (EqualsIgnoreCase(word, "format")) {
          if (!scan.Next(&word)) return ParseError(raw.line, "format expects vartext/binary");
          if (EqualsIgnoreCase(word, "vartext")) {
            cmd.format = legacy::DataFormat::kVartext;
            bool quoted = false;
            std::string delim;
            size_t save_probe = 0;
            (void)save_probe;
            if (scan.Next(&delim, &quoted) && quoted && delim.size() == 1) {
              cmd.delimiter = delim[0];
            } else if (!delim.empty()) {
              // Not a delimiter: treat as the next keyword.
              if (EqualsIgnoreCase(delim, "sessions")) {
                if (!scan.Next(&word)) return ParseError(raw.line, "sessions expects a count");
                HQ_ASSIGN_OR_RETURN(cmd.number, ParseInteger(raw.line, word));
              } else {
                return ParseError(raw.line, "unexpected word after format vartext: " + delim);
              }
            }
          } else if (EqualsIgnoreCase(word, "binary")) {
            cmd.format = legacy::DataFormat::kBinary;
          } else {
            return ParseError(raw.line, "unknown format: " + word);
          }
        } else if (EqualsIgnoreCase(word, "sessions")) {
          if (!scan.Next(&word)) return ParseError(raw.line, "sessions expects a count");
          HQ_ASSIGN_OR_RETURN(cmd.number, ParseInteger(raw.line, word));
        } else {
          return ParseError(raw.line, "unexpected word in .begin export: " + word);
        }
      }
      if (cmd.file.empty()) return ParseError(raw.line, ".begin export requires outfile <file>");
      return cmd;
    }
    return ParseError(raw.line, ".begin expects import or export");
  }
  if (lower == ".dml") {
    if (!scan.Next(&word) || !EqualsIgnoreCase(word, "label")) {
      return ParseError(raw.line, ".dml expects 'label <name>'");
    }
    if (!scan.Next(&cmd.name)) return ParseError(raw.line, ".dml label expects a name");
    cmd.kind = CommandKind::kDml;
    return cmd;
  }
  if (lower == ".import") {
    cmd.kind = CommandKind::kImport;
    while (scan.Next(&word)) {
      if (EqualsIgnoreCase(word, "infile")) {
        if (!scan.Next(&cmd.file)) return ParseError(raw.line, "infile expects a file name");
      } else if (EqualsIgnoreCase(word, "format")) {
        if (!scan.Next(&word)) return ParseError(raw.line, "format expects vartext/binary");
        if (EqualsIgnoreCase(word, "vartext")) {
          cmd.format = legacy::DataFormat::kVartext;
          bool quoted = false;
          std::string delim;
          if (scan.Next(&delim, &quoted)) {
            if (quoted && delim.size() == 1) {
              cmd.delimiter = delim[0];
            } else if (EqualsIgnoreCase(delim, "layout")) {
              if (!scan.Next(&cmd.layout_name)) {
                return ParseError(raw.line, "layout expects a name");
              }
            } else {
              return ParseError(raw.line, "unexpected word after format vartext: " + delim);
            }
          }
        } else if (EqualsIgnoreCase(word, "binary")) {
          cmd.format = legacy::DataFormat::kBinary;
        } else {
          return ParseError(raw.line, "unknown format: " + word);
        }
      } else if (EqualsIgnoreCase(word, "layout")) {
        if (!scan.Next(&cmd.layout_name)) return ParseError(raw.line, "layout expects a name");
      } else if (EqualsIgnoreCase(word, "apply")) {
        if (!scan.Next(&cmd.apply_label)) return ParseError(raw.line, "apply expects a label");
      } else {
        return ParseError(raw.line, "unexpected word in .import: " + word);
      }
    }
    if (cmd.file.empty() || cmd.layout_name.empty() || cmd.apply_label.empty()) {
      return ParseError(raw.line, ".import requires infile, layout and apply");
    }
    return cmd;
  }
  if (lower == ".end") {
    if (!scan.Next(&word)) return ParseError(raw.line, ".end expects load/export");
    if (EqualsIgnoreCase(word, "load")) {
      cmd.kind = CommandKind::kEndLoad;
      return cmd;
    }
    if (EqualsIgnoreCase(word, "export")) {
      cmd.kind = CommandKind::kEndExport;
      return cmd;
    }
    return ParseError(raw.line, ".end expects load or export");
  }
  if (lower == ".set") {
    if (!scan.Next(&cmd.set_name)) return ParseError(raw.line, ".set expects a name");
    if (!scan.Next(&word)) return ParseError(raw.line, ".set expects a value");
    cmd.set_name = common::ToLower(cmd.set_name);
    HQ_ASSIGN_OR_RETURN(cmd.number, ParseInteger(raw.line, word));
    cmd.kind = CommandKind::kSet;
    return cmd;
  }
  return ParseError(raw.line, "unknown script command: " + word);
}

}  // namespace

Result<Script> ParseScript(std::string_view text) {
  HQ_ASSIGN_OR_RETURN(std::vector<RawStatement> raw, SplitStatements(text));
  Script script;
  bool pending_dml = false;     // the next SQL statement attaches to this .dml
  bool pending_export = false;  // the next SELECT is the export query
  for (const auto& stmt : raw) {
    if (!stmt.text.empty() && stmt.text[0] == '.') {
      HQ_ASSIGN_OR_RETURN(Command cmd, ParseDotCommand(stmt));
      if (cmd.kind == CommandKind::kDml) {
        pending_dml = true;
      } else if (cmd.kind == CommandKind::kBeginExport) {
        pending_export = true;
      }
      script.commands.push_back(std::move(cmd));
      continue;
    }
    // Bare SQL.
    Command cmd;
    cmd.line = stmt.line;
    cmd.sql = stmt.text;
    if (pending_dml) {
      // Attach to the preceding .dml command.
      for (auto it = script.commands.rbegin(); it != script.commands.rend(); ++it) {
        if (it->kind == CommandKind::kDml && it->sql.empty()) {
          it->sql = stmt.text;
          break;
        }
      }
      pending_dml = false;
      continue;
    }
    if (pending_export) {
      cmd.kind = CommandKind::kExportSelect;
      pending_export = false;
    } else {
      cmd.kind = CommandKind::kSql;
    }
    script.commands.push_back(std::move(cmd));
  }
  return script;
}

}  // namespace hyperq::etlscript
