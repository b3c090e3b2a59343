//! Streaming edge-list I/O: road-network / web-graph-scale inputs as a
//! first-class graph source next to the generator families.
//!
//! The format is the lowest common denominator of SNAP, DIMACS-lite and
//! Matrix-Market-adjacent dumps: one edge per line, `u v` or `u v w`,
//! separated by whitespace and/or commas; blank lines and lines starting
//! with `#`, `%` or `//` are comments. Vertex ids are `0`-based and the
//! graph has `max(id) + 1` vertices — isolated trailing vertices cannot
//! be expressed (an edge list names only endpoints), which is fine for
//! the sampler: it requires connected inputs anyway.
//!
//! The weight column is load-bearing: a file is either entirely `u v`
//! (every edge gets weight 1) or entirely `u v w` — a file that mixes
//! the two forms is rejected with a typed [`EdgeListError::MixedWeights`]
//! naming the first offending line, because silently defaulting some
//! rows to weight 1 turns a truncated column into a plausible-looking
//! but wrong weighting. Weight values are validated at parse time too:
//! `NaN`, infinities and non-positive weights fail with the 1-based line
//! number instead of surfacing later as a positionless [`GraphError`].
//!
//! Reading is streaming — one `BufRead` line at a time, `O(m)` peak
//! memory for the edge triples — so a million-vertex path costs ~24 MB
//! of transient triples plus the final `O(nnz)` adjacency, never `Θ(n²)`
//! of anything. Structural validation (range, self-loops, duplicates) is
//! delegated to [`Graph::from_weighted_edges`], so a file rejects with
//! the same typed [`GraphError`] a programmatic caller would see.
//!
//! The spec form `file:PATH` ([`crate::spec`]) routes CLI `--graph` and
//! service `graph_spec` requests here. It reads the edges first and
//! builds the graph only after checking the vertex count `max(id) + 1`
//! against its size caps: building allocates adjacency for every vertex.

use crate::{Graph, GraphError};
use std::io::BufRead;
use std::path::Path;

/// A failure to load an edge-list file.
#[derive(Debug)]
pub enum EdgeListError {
    /// The file could not be opened or read.
    Io(std::io::Error),
    /// A line failed to parse (1-based line number and explanation).
    Parse {
        /// 1-based line number of the offending line.
        line: usize,
        /// What was wrong with it.
        message: String,
    },
    /// The file mixes `u v` and `u v w` lines. The payload is the
    /// 1-based line number of the first line whose form disagrees with
    /// the lines before it.
    MixedWeights {
        /// 1-based line number of the first inconsistent line.
        line: usize,
    },
    /// The edges parsed but do not form a valid simple weighted graph
    /// (out-of-range id, self-loop, duplicate, bad weight).
    Graph(GraphError),
    /// The file contained no edges at all.
    Empty,
}

impl std::fmt::Display for EdgeListError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EdgeListError::Io(e) => write!(f, "edge list unreadable: {e}"),
            EdgeListError::Parse { line, message } => {
                write!(f, "edge list line {line}: {message}")
            }
            EdgeListError::MixedWeights { line } => write!(
                f,
                "edge list line {line}: mixes weighted 'u v w' and unweighted 'u v' lines \
                 (the weight column must be all-present or all-absent)"
            ),
            EdgeListError::Graph(e) => write!(f, "edge list is not a valid graph: {e:?}"),
            EdgeListError::Empty => f.write_str("edge list contains no edges"),
        }
    }
}

impl std::error::Error for EdgeListError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EdgeListError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for EdgeListError {
    fn from(e: std::io::Error) -> Self {
        EdgeListError::Io(e)
    }
}

impl From<GraphError> for EdgeListError {
    fn from(e: GraphError) -> Self {
        EdgeListError::Graph(e)
    }
}

/// An edge list as read, before any graph is built.
pub(crate) struct EdgeList {
    /// The vertex count: the largest id plus one.
    pub(crate) n: usize,
    /// The `(u, v, w)` triples in file order (`w = 1` when the file has
    /// no weight column).
    edges: Vec<(usize, usize, f64)>,
}

impl EdgeList {
    /// Builds the graph, allocating adjacency for all [`EdgeList::n`]
    /// vertices.
    ///
    /// # Errors
    ///
    /// [`EdgeListError::Graph`] for out-of-range ids, self-loops and
    /// duplicate edges.
    pub(crate) fn into_graph(self) -> Result<Graph, EdgeListError> {
        Ok(Graph::from_weighted_edges(self.n, &self.edges)?)
    }
}

/// Parses an edge list from any buffered reader (see the module docs for
/// the format).
///
/// # Errors
///
/// [`EdgeListError`] on I/O failure, malformed lines, invalid edges, or
/// an edge-free input.
///
/// # Examples
///
/// ```
/// use cct_graph::io::parse_edge_list;
///
/// let g = parse_edge_list("# a weighted 3-path\n0 1 2\n1,2 0.5\n".as_bytes()).unwrap();
/// assert_eq!((g.n(), g.m()), (3, 2));
/// assert_eq!(g.edge_weight(0, 1), Some(2.0));
/// ```
pub fn parse_edge_list<R: BufRead>(reader: R) -> Result<Graph, EdgeListError> {
    parse_edges(reader)?.into_graph()
}

fn parse_edges<R: BufRead>(reader: R) -> Result<EdgeList, EdgeListError> {
    let mut edges: Vec<(usize, usize, f64)> = Vec::new();
    let mut n = 0usize;
    // Whether the file's data lines carry a weight column — set by the
    // first data line, enforced on every later one.
    let mut weighted: Option<bool> = None;
    for (idx, line) in reader.lines().enumerate() {
        let line = line?;
        let text = line.trim();
        if text.is_empty()
            || text.starts_with('#')
            || text.starts_with('%')
            || text.starts_with("//")
        {
            continue;
        }
        let lineno = idx + 1;
        let mut fields = text
            .split(|c: char| c.is_whitespace() || c == ',')
            .filter(|f| !f.is_empty());
        let parse_id = |s: &str| -> Result<usize, EdgeListError> {
            s.parse::<usize>().map_err(|_| EdgeListError::Parse {
                line: lineno,
                message: format!("bad vertex id '{s}'"),
            })
        };
        let u = parse_id(fields.next().ok_or(EdgeListError::Parse {
            line: lineno,
            message: "missing source vertex".into(),
        })?)?;
        let v = parse_id(fields.next().ok_or(EdgeListError::Parse {
            line: lineno,
            message: "missing target vertex".into(),
        })?)?;
        let w = match fields.next() {
            None => {
                if weighted == Some(true) {
                    return Err(EdgeListError::MixedWeights { line: lineno });
                }
                weighted = Some(false);
                1.0
            }
            Some(s) => {
                if weighted == Some(false) {
                    return Err(EdgeListError::MixedWeights { line: lineno });
                }
                weighted = Some(true);
                let w = s.parse::<f64>().map_err(|_| EdgeListError::Parse {
                    line: lineno,
                    message: format!("bad weight '{s}'"),
                })?;
                // `f64::parse` accepts "nan"/"inf"; reject the weight
                // domain here so the error carries a line number instead
                // of a positionless GraphError::BadWeight later.
                if !w.is_finite() || w <= 0.0 {
                    return Err(EdgeListError::Parse {
                        line: lineno,
                        message: format!("weight '{s}' is not a finite positive number"),
                    });
                }
                w
            }
        };
        if let Some(extra) = fields.next() {
            return Err(EdgeListError::Parse {
                line: lineno,
                message: format!("unexpected trailing field '{extra}'"),
            });
        }
        let id = u.max(v);
        let needed = id.checked_add(1).ok_or_else(|| EdgeListError::Parse {
            line: lineno,
            message: format!(
                "vertex id {id} is too large (the largest supported id is {})",
                usize::MAX - 1
            ),
        })?;
        n = n.max(needed);
        edges.push((u, v, w));
    }
    if edges.is_empty() {
        return Err(EdgeListError::Empty);
    }
    Ok(EdgeList { n, edges })
}

/// Loads an edge-list file (see the module docs for the format).
///
/// # Errors
///
/// [`EdgeListError`] on I/O failure, malformed lines, invalid edges, or
/// an edge-free file.
pub fn read_edge_list(path: impl AsRef<Path>) -> Result<Graph, EdgeListError> {
    read_edges(path)?.into_graph()
}

/// Loads an edge-list file without building the graph, so the caller
/// can check [`EdgeList::n`] before [`EdgeList::into_graph`] allocates.
///
/// # Errors
///
/// [`EdgeListError`] on I/O failure, malformed lines, or an edge-free
/// file.
pub(crate) fn read_edges(path: impl AsRef<Path>) -> Result<EdgeList, EdgeListError> {
    let file = std::fs::File::open(path)?;
    parse_edges(std::io::BufReader::new(file))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_whitespace_and_comma_forms() {
        for text in ["0 1\n1 2\n2 3\n", "0,1\n1,2\n2,3\n", "0\t1\n1, 2\n2 , 3\n"] {
            let g = parse_edge_list(text.as_bytes()).unwrap();
            assert_eq!((g.n(), g.m()), (4, 3), "{text:?}");
            assert!(g.is_connected());
        }
    }

    #[test]
    fn comments_blanks_and_weights() {
        let text = "# comment\n% more\n// and more\n\n0 1 2.5\n1 2 1\n";
        let g = parse_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.m(), 2);
        let w: Vec<_> = g.edges().to_vec();
        assert_eq!(w[0], (0, 1, 2.5));
        assert_eq!(w[1], (1, 2, 1.0));
    }

    #[test]
    fn weight_column_surfaces_in_graph() {
        let g = parse_edge_list("0,1,3\n1,2,0.25\n".as_bytes()).unwrap();
        assert_eq!(g.edge_weight(0, 1), Some(3.0));
        assert_eq!(g.edge_weight(1, 2), Some(0.25));
        assert!(!g.has_integer_weights());
        assert_eq!(g.total_weight(), 3.25);
    }

    #[test]
    fn mixed_weighted_and_unweighted_lines_rejected() {
        // Unweighted first, weighted later — and the reverse; comments
        // and blank lines must not reset the tracked form.
        for (text, want_line) in [
            ("0 1\n1 2 2.0\n", 2),
            ("0 1 2.0\n1 2\n", 2),
            ("# c\n0 1\n\n% c\n1 2 2.0\n", 5),
            ("0,1,1.5\n# c\n1 2\n", 3),
        ] {
            match parse_edge_list(text.as_bytes()) {
                Err(EdgeListError::MixedWeights { line }) => {
                    assert_eq!(line, want_line, "{text:?}")
                }
                other => panic!("{text:?}: expected MixedWeights, got {other:?}"),
            }
        }
        let msg = parse_edge_list("0 1\n1 2 2.0\n".as_bytes())
            .unwrap_err()
            .to_string();
        assert!(msg.contains("line 2"), "{msg}");
        assert!(msg.contains("mixes weighted"), "{msg}");
    }

    #[test]
    fn weight_domain_rejected_at_parse_time_with_line_numbers() {
        // "nan"/"inf" parse as f64, and negatives/zero are syntactically
        // fine — all must still fail here, with the line number.
        for (text, want_line) in [
            ("0 1 nan\n", 1),
            ("0 1 NaN\n", 1),
            ("0 1 2.0\n1 2 inf\n", 2),
            ("0 1 1.0\n1 2 -inf\n", 2),
            ("0 1 -2\n", 1),
            ("0 1 0\n", 1),
            ("0 1 0.0\n", 1),
        ] {
            match parse_edge_list(text.as_bytes()) {
                Err(EdgeListError::Parse { line, message }) => {
                    assert_eq!(line, want_line, "{text:?}");
                    assert!(message.contains("finite positive"), "{message}");
                }
                other => panic!("{text:?}: expected Parse error, got {other:?}"),
            }
        }
    }

    #[test]
    fn n_is_max_id_plus_one() {
        let g = parse_edge_list("5 9\n".as_bytes()).unwrap();
        assert_eq!(g.n(), 10);
        assert_eq!(g.m(), 1);
        assert!(!g.is_connected(), "ids 0..5 are isolated");
    }

    #[test]
    fn malformed_lines_carry_line_numbers() {
        for (text, want_line) in [
            ("0 1\nx 2\n", 2),
            ("0\n", 1),
            ("0 1\n\n# c\n1 two\n", 4),
            ("0 1 1.0 extra\n", 1),
            ("0 1 heavy\n", 1),
            // max(id) + 1 would overflow rather than count the vertices.
            ("0 1\n0 18446744073709551615\n", 2),
        ] {
            match parse_edge_list(text.as_bytes()) {
                Err(EdgeListError::Parse { line, .. }) => {
                    assert_eq!(line, want_line, "{text:?}")
                }
                other => panic!("{text:?}: expected Parse error, got {other:?}"),
            }
        }
    }

    #[test]
    fn graph_validation_is_delegated() {
        assert!(matches!(
            parse_edge_list("0 0\n".as_bytes()),
            Err(EdgeListError::Graph(GraphError::SelfLoop(0)))
        ));
        assert!(matches!(
            parse_edge_list("0 1\n1 0\n".as_bytes()),
            Err(EdgeListError::Graph(GraphError::DuplicateEdge(0, 1)))
        ));
        assert!(matches!(
            parse_edge_list("".as_bytes()),
            Err(EdgeListError::Empty)
        ));
        assert!(matches!(
            parse_edge_list("# only comments\n".as_bytes()),
            Err(EdgeListError::Empty)
        ));
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("cct-io-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cycle4.el");
        std::fs::write(&path, "0 1\n1 2\n2 3\n0 3\n").unwrap();
        let g = read_edge_list(&path).unwrap();
        assert_eq!((g.n(), g.m()), (4, 4));
        assert!(read_edge_list(dir.join("missing.el")).is_err());
        std::fs::remove_file(&path).ok();
    }
}
