#include "graph/io.hpp"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <istream>
#include <optional>
#include <ostream>
#include <sstream>

namespace pmcast {
namespace {

/// Whitespace tokenizer over one (comment-stripped) line that remembers
/// where each token starts, so diagnostics can carry a 1-based column.
class LineScanner {
 public:
  explicit LineScanner(const std::string& line) : line_(line) {}

  /// Advance to the next token; false at end of line.
  bool next(std::string& token, int& column) {
    while (pos_ < line_.size() &&
           std::isspace(static_cast<unsigned char>(line_[pos_]))) {
      ++pos_;
    }
    if (pos_ >= line_.size()) return false;
    size_t start = pos_;
    while (pos_ < line_.size() &&
           !std::isspace(static_cast<unsigned char>(line_[pos_]))) {
      ++pos_;
    }
    token = line_.substr(start, pos_ - start);
    column = static_cast<int>(start) + 1;
    return true;
  }

  /// Column just past the line's content — where a *missing* token would
  /// have started.
  int end_column() const { return static_cast<int>(line_.size()) + 1; }

 private:
  const std::string& line_;
  size_t pos_ = 0;
};

/// Full-consumption integer parse; rejects overflow and trailing junk.
std::optional<long> parse_long(const std::string& token) {
  if (token.empty()) return std::nullopt;
  errno = 0;
  char* end = nullptr;
  long value = std::strtol(token.c_str(), &end, 10);
  if (errno == ERANGE || end != token.c_str() + token.size()) {
    return std::nullopt;
  }
  return value;
}

/// Full-consumption double parse. Accepts "inf"/"nan" textually — the
/// caller's finite/positive checks reject them with a better message than
/// "not a number".
std::optional<double> parse_double(const std::string& token) {
  if (token.empty()) return std::nullopt;
  char* end = nullptr;
  double value = std::strtod(token.c_str(), &end);
  if (end != token.c_str() + token.size()) return std::nullopt;
  return value;
}

struct Parser {
  Parser(std::istream& in, std::string origin)
      : in(in), origin(std::move(origin)) {}

  std::istream& in;
  std::string origin;

  PlatformFile platform;
  bool have_nodes = false;
  std::vector<char> is_target;
  int line_no = 0;

  Status error(int column, std::string token, std::string message) const {
    return Status(StatusCode::kParseError, std::move(message),
                  SourceLocation{origin, line_no, column, std::move(token)});
  }

  /// A diagnostic for the file as a whole (missing directive, cross-line
  /// inconsistency). Anchored at the last line read — column/token stay
  /// unknown — so both the Status rendering and the legacy shim keep a
  /// line number (the pre-v1 parser reported these at its last line too).
  Status file_error(std::string message) const {
    return Status(StatusCode::kParseError, std::move(message),
                  SourceLocation{origin, line_no, 0, ""});
  }

  bool node_ok(long id) const {
    return id >= 0 && id < platform.graph.node_count();
  }

  Result<PlatformFile> run() {
    std::string line;
    while (std::getline(in, line)) {
      ++line_no;
      // Strip comments before tokenizing; columns stay correct because
      // only the tail is erased.
      auto hash = line.find('#');
      if (hash != std::string::npos) line.erase(hash);

      LineScanner scan(line);
      std::string keyword;
      int kw_col = 0;
      if (!scan.next(keyword, kw_col)) continue;  // blank line

      Status status = directive(keyword, scan);
      if (!status.ok()) return status;

      std::string junk;
      int junk_col = 0;
      if (scan.next(junk, junk_col)) {
        // A truncated token ("edge 0 1 1.5x" leaves "x"? no — "1.5x" fails
        // number parsing) or a forgotten '#' would otherwise be silently
        // misread.
        return error(junk_col, junk,
                     "unexpected trailing text after " + keyword);
      }
    }
    if (!have_nodes) return file_error("missing nodes directive");
    if (platform.source == kInvalidNode) {
      return file_error("missing source directive");
    }
    for (NodeId t : platform.targets) {
      if (t == platform.source) {
        return file_error("the source cannot be a target (node " +
                          std::to_string(t) + ")");
      }
    }
    return std::move(platform);
  }

  Status directive(const std::string& keyword, LineScanner& scan) {
    if (keyword == "nodes") return parse_nodes(scan);
    if (keyword == "name") return parse_name(scan);
    if (keyword == "edge" || keyword == "link") {
      return parse_edge(keyword, scan);
    }
    if (keyword == "source") return parse_source(scan);
    if (keyword == "target") return parse_target(scan);
    return error(1, keyword, "unknown directive '" + keyword + "'");
  }

  Status parse_nodes(LineScanner& scan) {
    std::string token;
    int col = 0;
    bool have = scan.next(token, col);
    std::optional<long> count = have ? parse_long(token) : std::nullopt;
    if (!count || *count < 1 || *count > 1'000'000) {
      return error(have ? col : scan.end_column(), token,
                   "nodes needs a positive count (at most 1000000)");
    }
    if (have_nodes) {
      return error(col, token, "duplicate nodes directive");
    }
    platform.graph.add_nodes(static_cast<int>(*count));
    is_target.assign(static_cast<size_t>(*count), 0);
    have_nodes = true;
    return Status::Ok();
  }

  Status parse_name(LineScanner& scan) {
    std::string id_token, label;
    int id_col = 0, label_col = 0;
    bool have_id = scan.next(id_token, id_col);
    std::optional<long> id = have_id ? parse_long(id_token) : std::nullopt;
    if (!id || !node_ok(*id)) {
      return error(have_id ? id_col : scan.end_column(), id_token,
                   "name needs a valid node id and a label");
    }
    if (!scan.next(label, label_col)) {
      return error(scan.end_column(), "",
                   "name needs a valid node id and a label");
    }
    platform.graph.set_node_name(static_cast<NodeId>(*id), label);
    return Status::Ok();
  }

  Status parse_edge(const std::string& keyword, LineScanner& scan) {
    std::string tokens[3];
    int cols[3] = {0, 0, 0};
    for (int i = 0; i < 3; ++i) {
      if (!scan.next(tokens[i], cols[i])) {
        return error(scan.end_column(), "",
                     keyword + " needs: <from> <to> <cost>");
      }
    }
    auto from = parse_long(tokens[0]);
    auto to = parse_long(tokens[1]);
    auto cost = parse_double(tokens[2]);
    if (!from) {
      return error(cols[0], tokens[0],
                   keyword + " needs: <from> <to> <cost>");
    }
    if (!to) {
      return error(cols[1], tokens[1],
                   keyword + " needs: <from> <to> <cost>");
    }
    if (!cost) {
      return error(cols[2], tokens[2],
                   keyword + " needs: <from> <to> <cost>");
    }
    if (!node_ok(*from)) {
      return error(cols[0], tokens[0],
                   keyword + " endpoint out of range (did a nodes directive "
                             "come first?)");
    }
    if (!node_ok(*to)) {
      return error(cols[1], tokens[1],
                   keyword + " endpoint out of range (did a nodes directive "
                             "come first?)");
    }
    if (*from == *to) {
      return error(cols[1], tokens[1], "self-loop edges are not allowed");
    }
    // NaN fails (cost > 0.0); infinity must be rejected explicitly — it
    // would trip an assert in Digraph::add_edge in debug builds and
    // corrupt the LP formulations in release builds.
    if (!(*cost > 0.0) || !std::isfinite(*cost)) {
      return error(cols[2], tokens[2], "edge cost must be finite and > 0");
    }
    if (keyword == "edge") {
      platform.graph.add_edge(static_cast<NodeId>(*from),
                              static_cast<NodeId>(*to), *cost);
    } else {
      platform.graph.add_bidirectional(static_cast<NodeId>(*from),
                                       static_cast<NodeId>(*to), *cost);
    }
    return Status::Ok();
  }

  Status parse_source(LineScanner& scan) {
    std::string token;
    int col = 0;
    bool have = scan.next(token, col);
    std::optional<long> id = have ? parse_long(token) : std::nullopt;
    if (!id || !node_ok(*id)) {
      return error(have ? col : scan.end_column(), token,
                   "source needs a valid node id");
    }
    if (platform.source != kInvalidNode) {
      return error(col, token, "duplicate source directive");
    }
    platform.source = static_cast<NodeId>(*id);
    return Status::Ok();
  }

  Status parse_target(LineScanner& scan) {
    std::string token;
    int col = 0;
    bool any = false;
    while (scan.next(token, col)) {
      auto id = parse_long(token);
      if (!id || !node_ok(*id)) {
        return error(col, token, "target id out of range");
      }
      if (is_target[static_cast<size_t>(*id)]) {
        return error(col, token,
                     "duplicate target " + std::to_string(*id));
      }
      is_target[static_cast<size_t>(*id)] = 1;
      platform.targets.push_back(static_cast<NodeId>(*id));
      any = true;
    }
    if (!any) {
      return error(scan.end_column(), "",
                   "target needs at least one node id");
    }
    return Status::Ok();
  }
};

}  // namespace

Result<PlatformFile> read_platform(std::istream& in, std::string origin) {
  Parser parser(in, std::move(origin));
  return parser.run();
}

Result<PlatformFile> read_platform_text(const std::string& text,
                                        std::string origin) {
  std::istringstream in(text);
  return read_platform(in, std::move(origin));
}

Result<PlatformFile> load_platform(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status(StatusCode::kNotFound, "cannot open '" + path + "'");
  }
  return read_platform(in, path);
}

namespace {

/// A name round-trips only when the parser can read it back as one token:
/// non-empty, no whitespace, no comment char.
bool name_roundtrips(const std::string& name) {
  if (name.empty()) return false;
  for (char c : name) {
    if (c == '#' || std::isspace(static_cast<unsigned char>(c))) return false;
  }
  return true;
}

}  // namespace

void write_platform(std::ostream& out, const PlatformFile& platform) {
  const Digraph& g = platform.graph;
  out << "nodes " << g.node_count() << "\n";
  for (NodeId v = 0; v < g.node_count(); ++v) {
    if (name_roundtrips(g.node_name(v))) {
      out << "name " << v << " " << g.node_name(v) << "\n";
    }
  }
  out << "source " << platform.source << "\n";
  if (!platform.targets.empty()) {
    out << "target";
    for (NodeId t : platform.targets) out << " " << t;
    out << "\n";
  }
  // Max precision so write -> parse -> write is byte-stable for any cost.
  const auto saved_precision = out.precision(17);
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    const Edge& edge = g.edge(e);
    out << "edge " << edge.from << " " << edge.to << " " << edge.cost << "\n";
  }
  out.precision(saved_precision);
}

std::string write_platform_string(const PlatformFile& platform) {
  std::ostringstream os;
  write_platform(os, platform);
  return os.str();
}

Status save_platform(const std::string& path, const PlatformFile& platform) {
  std::ofstream out(path);
  if (!out) {
    return Status(StatusCode::kUnavailable,
                  "cannot open '" + path + "' for writing");
  }
  write_platform(out, platform);
  out.flush();
  if (!out) {
    return Status(StatusCode::kUnavailable, "write to '" + path + "' failed");
  }
  return Status::Ok();
}

}  // namespace pmcast
