#pragma once
/// \file io.hpp
/// Plain-text platform file format, so downstream users can run the
/// heuristics on their own topologies via the CLI (examples/pmcast_cli).
///
/// Format (line oriented, '#' comments):
///     nodes <count>
///     name <id> <label>            # optional
///     edge <from> <to> <cost>      # directed
///     link <a> <b> <cost>          # both directions
///     source <id>
///     target <id> [<id> ...]
///
/// Example:
///     nodes 4
///     source 0
///     edge 0 1 1.0
///     link 1 2 0.5
///     link 1 3 0.5
///     target 2 3
///
/// The primary parse API reports errors through the v1 Status/Result
/// model: every diagnostic carries the origin (file path or "<string>"),
/// 1-based line and column, and the offending token — e.g.
///     net.platform:7:12: edge cost must be finite and > 0 (near '-3')

#include <iosfwd>
#include <string>
#include <vector>

#include "graph/digraph.hpp"
#include "pmcast/status.hpp"

namespace pmcast {

struct PlatformFile {
  Digraph graph;
  NodeId source = kInvalidNode;
  std::vector<NodeId> targets;
};

/// Parse a platform description. \p origin names the text's source in
/// diagnostics (a file path, "<string>", ...).
Result<PlatformFile> read_platform(std::istream& in,
                                   std::string origin = "<stream>");
Result<PlatformFile> read_platform_text(const std::string& text,
                                        std::string origin = "<string>");
/// Open \p path and parse it; a missing/unreadable file is kNotFound.
Result<PlatformFile> load_platform(const std::string& path);

/// Serialise a platform in the same format (round-trips with the parser).
void write_platform(std::ostream& out, const PlatformFile& platform);
std::string write_platform_string(const PlatformFile& platform);
/// Write \p platform to \p path; an unwritable path is kUnavailable.
Status save_platform(const std::string& path, const PlatformFile& platform);

}  // namespace pmcast
