// Minimal JSON document model for the machine-readable telemetry reports.
//
// The exporters in perf/ build a JsonValue tree and dump() it; dump output is
// deterministic (object keys keep insertion order) so BENCH_*.json artifacts
// diff cleanly run to run. parse() is the exact inverse and doubles as the
// validity oracle for the Chrome-trace exporter tests. No external
// dependency: the container bans new packages, and the grammar needed here
// is small.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace tsr::obs {

class JsonValue {
 public:
  enum class Kind { Null, Bool, Int, Double, String, Array, Object };

  JsonValue() : kind_(Kind::Null) {}
  JsonValue(bool b) : kind_(Kind::Bool), bool_(b) {}
  JsonValue(int v) : kind_(Kind::Int), int_(v) {}
  JsonValue(std::int64_t v) : kind_(Kind::Int), int_(v) {}
  JsonValue(double v) : kind_(Kind::Double), double_(v) {}
  JsonValue(const char* s) : kind_(Kind::String), string_(s) {}
  JsonValue(std::string s) : kind_(Kind::String), string_(std::move(s)) {}

  static JsonValue object() { return JsonValue(Kind::Object); }
  static JsonValue array() { return JsonValue(Kind::Array); }

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::Null; }
  bool is_object() const { return kind_ == Kind::Object; }
  bool is_array() const { return kind_ == Kind::Array; }
  bool is_number() const { return kind_ == Kind::Int || kind_ == Kind::Double; }
  bool is_string() const { return kind_ == Kind::String; }

  bool as_bool() const { return bool_; }
  std::int64_t as_int() const {
    return kind_ == Kind::Double ? static_cast<std::int64_t>(double_) : int_;
  }
  double as_double() const {
    return kind_ == Kind::Int ? static_cast<double>(int_) : double_;
  }
  const std::string& as_string() const { return string_; }

  /// Object access; inserts a null member on first use (insertion order kept).
  JsonValue& operator[](const std::string& key);
  /// Read-only lookup: nullptr when absent or not an object.
  const JsonValue* find(const std::string& key) const;
  const std::vector<std::pair<std::string, JsonValue>>& members() const {
    return members_;
  }

  /// Array access.
  void push_back(JsonValue v);
  const std::vector<JsonValue>& items() const { return items_; }
  /// Last array element (for building a case in place after push_back).
  JsonValue& back() { return items_.back(); }
  std::size_t size() const {
    return kind_ == Kind::Object ? members_.size() : items_.size();
  }

  /// Serializes the tree. indent < 0 gives the compact single-line form;
  /// indent >= 0 pretty-prints with that many spaces per level. Non-finite
  /// doubles serialize as null (JSON has no NaN/Inf).
  std::string dump(int indent = -1) const;

 private:
  explicit JsonValue(Kind k) : kind_(k) {}
  void dump_to(std::string& out, int indent, int depth) const;

  Kind kind_;
  bool bool_ = false;
  std::int64_t int_ = 0;
  double double_ = 0.0;
  std::string string_;
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

/// Appends `s` as a quoted JSON string (with escaping) to `out`.
void append_json_string(std::string& out, const std::string& s);

/// Parses a complete JSON document. On failure returns null and, when `error`
/// is non-null, stores a message with the byte offset of the problem.
JsonValue json_parse(const std::string& text, std::string* error = nullptr);

/// Writes `dump(indent)` plus a trailing newline; false on I/O failure.
bool write_json_file(const std::string& path, const JsonValue& value,
                     int indent = 2);

/// Outcome of one scan_jsonl() pass over a (possibly still growing) JSONL
/// buffer. `consumed` is the byte offset just past the last successfully
/// parsed line: a caller tailing a file re-reads from there next poll, and
/// the ledger truncates a damaged file back to it before appending.
struct JsonlScan {
  enum class Status {
    Ok,        // every newline-terminated line parsed
    TornTail,  // the FINAL newline-terminated line failed to parse — a
               // concurrent writer was mid-append; re-read it later
    Corrupt,   // a line with data after it failed to parse: real corruption
  };
  Status status = Status::Ok;
  std::size_t consumed = 0;  // bytes of `data` fully consumed
  std::string error;         // parse error (Corrupt only)
};

/// Walks newline-terminated JSONL lines in `data`, invoking `on_line` for
/// each parsed document (empty lines are skipped). Trailing bytes without a
/// newline are never consumed — they are an incomplete line by definition.
/// The torn-tail rule matches what a concurrent writer can produce: only the
/// LAST newline-terminated line may legitimately fail to parse (the newline
/// landed before the rest of the line did); any earlier failure is Corrupt.
JsonlScan scan_jsonl(std::string_view data,
                     const std::function<void(JsonValue)>& on_line);

/// Resolves a relative artifact filename against RunConfig::artifact_dir
/// (TESSERACT_ARTIFACT_DIR) when it is set, creating the directory
/// best-effort, so every BENCH_*/REPORT_*/TIMELINE_*/FLAME_* writer lands in
/// one collectable directory. Absolute paths and an unset directory pass
/// through unchanged.
std::string artifact_path(const std::string& filename);

}  // namespace tsr::obs
