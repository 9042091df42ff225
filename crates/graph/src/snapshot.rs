//! Snapshots and exports.
//!
//! - **Compact snapshot** ([`to_compact`]/[`from_compact`]) — the only
//!   state serialisation: lossless (vertex/edge properties *and*
//!   tombstones preserved), checksummed against torn writes, and the graph
//!   section of the durability stack's checkpoint (`nous-persist`).
//! - **DOT / JSON-graph export** ([`to_dot`]/[`to_json_graph`]) — the
//!   visualisation feeds behind the paper's Figures 2, 4 and 6: curated
//!   edges render red, extracted edges blue, each labelled with predicate
//!   and confidence. Exports are one-way; nothing reads them back.

use crate::codec::{self, Reader};
use crate::edge::{Edge, Provenance};
use crate::graph::DynamicGraph;
use crate::ids::{PredicateId, VertexId};
use crate::props::{PropMap, PropValue};
use serde::Serialize;
use std::fmt::Write as _;

/// Errors from snapshot decoding.
#[derive(Debug)]
pub enum SnapshotError {
    /// The blob was truncated or malformed.
    Corrupt(&'static str),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Corrupt(what) => write!(f, "corrupt snapshot: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

// ---- compact snapshot -----------------------------------------------------

const COMPACT_MAGIC: &[u8; 8] = b"NOUSGRPH";
const COMPACT_VERSION: u32 = 1;

/// Bytes of an edge record's fixed fields (src, pred, dst, timestamp,
/// confidence, provenance doc id), before its tombstone flag and
/// properties. Shared with the delta-overlay frame, which writes the same
/// fields.
pub(crate) const EDGE_FIXED_BYTES: usize = 4 + 4 + 4 + 8 + 4 + 8;

fn put_prop_value(buf: &mut Vec<u8>, v: &PropValue) {
    match v {
        PropValue::Str(s) => {
            codec::put_u8(buf, 0);
            codec::put_str(buf, s);
        }
        PropValue::Int(i) => {
            codec::put_u8(buf, 1);
            codec::put_u64(buf, *i as u64);
        }
        PropValue::Float(f) => {
            codec::put_u8(buf, 2);
            codec::put_f64(buf, *f);
        }
        PropValue::Bool(b) => {
            codec::put_u8(buf, 3);
            codec::put_u8(buf, *b as u8);
        }
        PropValue::List(items) => {
            codec::put_u8(buf, 4);
            codec::put_u32(buf, items.len() as u32);
            for s in items {
                codec::put_str(buf, s);
            }
        }
        PropValue::Vector(xs) => {
            codec::put_u8(buf, 5);
            codec::put_u32(buf, xs.len() as u32);
            for x in xs {
                codec::put_f32(buf, *x);
            }
        }
    }
}

fn read_prop_value(r: &mut Reader<'_>) -> Result<PropValue, SnapshotError> {
    let corrupt = |_| SnapshotError::Corrupt("truncated property value");
    Ok(match r.u8().map_err(corrupt)? {
        0 => PropValue::Str(r.str().map_err(corrupt)?.to_owned()),
        1 => PropValue::Int(r.u64().map_err(corrupt)? as i64),
        2 => PropValue::Float(r.f64().map_err(corrupt)?),
        3 => PropValue::Bool(r.u8().map_err(corrupt)? != 0),
        4 => {
            let n = r.count(4, "property list length").map_err(corrupt)?;
            let mut items = Vec::with_capacity(n);
            for _ in 0..n {
                items.push(r.str().map_err(corrupt)?.to_owned());
            }
            PropValue::List(items)
        }
        5 => {
            let n = r.count(4, "property vector length").map_err(corrupt)?;
            let mut xs = Vec::with_capacity(n);
            for _ in 0..n {
                xs.push(r.f32().map_err(corrupt)?);
            }
            PropValue::Vector(xs)
        }
        _ => return Err(SnapshotError::Corrupt("unknown property tag")),
    })
}

pub(crate) fn put_prop_map(buf: &mut Vec<u8>, props: &PropMap) {
    codec::put_u32(buf, props.len() as u32);
    for (k, v) in props.iter() {
        codec::put_str(buf, k);
        put_prop_value(buf, v);
    }
}

pub(crate) fn read_prop_map(r: &mut Reader<'_>) -> Result<PropMap, SnapshotError> {
    let n = r
        .count(5, "property map length")
        .map_err(|_| SnapshotError::Corrupt("truncated property map"))?;
    let mut props = PropMap::new();
    for _ in 0..n {
        let key = r
            .str()
            .map_err(|_| SnapshotError::Corrupt("truncated property key"))?
            .to_owned();
        let value = read_prop_value(r)?;
        props.set(&key, value);
    }
    Ok(props)
}

/// Encode the whole graph — vertices with labels and properties, the
/// predicate table, and the *full* edge log including tombstone flags and
/// edge properties — into a checksummed binary blob.
/// [`from_compact`] restores a structurally identical graph: identical
/// dense ids (creation order is preserved), identical `log_len`, and the
/// same live/dead partition.
pub fn to_compact(g: &DynamicGraph) -> Vec<u8> {
    let mut out = Vec::with_capacity(84 + g.log_len() * (EDGE_FIXED_BYTES + 8));
    to_compact_into(g, &mut out);
    out
}

/// [`to_compact`] appended to `out` — a checkpoint nests the blob in a
/// larger buffer without materialising it first.
pub fn to_compact_into(g: &DynamicGraph, out: &mut Vec<u8>) {
    codec::put_checksummed(out, COMPACT_MAGIC, COMPACT_VERSION, |body| {
        codec::put_u32(body, g.vertex_count() as u32);
        for v in g.iter_vertices() {
            codec::put_str(body, g.vertex_name(v));
            let data = g.vertex_data(v);
            match &data.label {
                Some(l) => {
                    codec::put_u8(body, 1);
                    codec::put_str(body, l);
                }
                None => codec::put_u8(body, 0),
            }
            put_prop_map(body, &data.props);
        }
        codec::put_u32(body, g.predicate_count() as u32);
        for (_, name) in g.iter_predicates() {
            codec::put_str(body, name);
        }
        codec::put_u32(body, g.log_len() as u32);
        for (idx, e) in g.edge_log().iter().enumerate() {
            codec::put_u32(body, e.src.0);
            codec::put_u32(body, e.pred.0);
            codec::put_u32(body, e.dst.0);
            codec::put_u64(body, e.at);
            codec::put_f32(body, e.confidence);
            match &e.provenance {
                Provenance::Curated => codec::put_u64(body, u64::MAX),
                Provenance::Extracted { doc_id } => codec::put_u64(body, *doc_id),
            }
            let live = g.is_live(crate::ids::EdgeId(idx as u32));
            codec::put_u8(body, !live as u8);
            put_prop_map(body, &e.props);
        }
    });
}

/// Decode a [`to_compact`] blob, verifying magic, version and checksum.
pub fn from_compact(blob: &[u8]) -> Result<DynamicGraph, SnapshotError> {
    if blob.len() < 20 || &blob[..8] != COMPACT_MAGIC {
        return Err(SnapshotError::Corrupt("bad compact snapshot magic"));
    }
    let mut head = Reader::new(&blob[8..20]);
    let version = head.u32().expect("12 bytes remain");
    if version != COMPACT_VERSION {
        return Err(SnapshotError::Corrupt("unsupported compact version"));
    }
    let checksum = head.u64().expect("8 bytes remain");
    let body = &blob[20..];
    if codec::fnv1a64(body) != checksum {
        return Err(SnapshotError::Corrupt("compact snapshot checksum mismatch"));
    }

    let corrupt = |what: &'static str| move |_| SnapshotError::Corrupt(what);
    let mut r = Reader::new(body);
    let mut g = DynamicGraph::new();
    let nv = r
        .count(6, "vertex count")
        .map_err(corrupt("vertex count"))?;
    for _ in 0..nv {
        let name = r.str().map_err(corrupt("vertex name"))?;
        let v = g.ensure_vertex(name);
        if r.u8().map_err(corrupt("label flag"))? != 0 {
            let label = r.str().map_err(corrupt("vertex label"))?.to_owned();
            g.set_label(v, &label);
        }
        g.vertex_data_mut(v).props = read_prop_map(&mut r)?;
    }
    let np = r
        .count(4, "predicate count")
        .map_err(corrupt("predicate count"))?;
    for _ in 0..np {
        let name = r.str().map_err(corrupt("predicate name"))?;
        g.intern_predicate(name);
    }
    let ne = r
        .count(EDGE_FIXED_BYTES + 5, "edge count")
        .map_err(corrupt("edge count"))?;
    for _ in 0..ne {
        let src = VertexId(r.u32().map_err(corrupt("edge src"))?);
        let pred = PredicateId(r.u32().map_err(corrupt("edge pred"))?);
        let dst = VertexId(r.u32().map_err(corrupt("edge dst"))?);
        let at = r.u64().map_err(corrupt("edge at"))?;
        let confidence = r.f32().map_err(corrupt("edge confidence"))?;
        let doc = r.u64().map_err(corrupt("edge provenance"))?;
        let dead = r.u8().map_err(corrupt("edge tombstone flag"))? != 0;
        let props = read_prop_map(&mut r)?;
        if src.index() >= g.vertex_count()
            || dst.index() >= g.vertex_count()
            || pred.index() >= g.predicate_count()
        {
            return Err(SnapshotError::Corrupt("edge references unknown id"));
        }
        let provenance = if doc == u64::MAX {
            Provenance::Curated
        } else {
            Provenance::Extracted { doc_id: doc }
        };
        let mut e = Edge::new(src, pred, dst, at, confidence, provenance);
        e.props = props;
        let id = g.add_edge(e);
        if dead {
            g.remove_edge(id);
        }
    }
    if !r.is_empty() {
        return Err(SnapshotError::Corrupt("trailing bytes after edge log"));
    }
    Ok(g)
}

// ---- exports ---------------------------------------------------------------

fn escape_dot(s: &str) -> String {
    s.replace('"', "\\\"")
}

/// Render the neighbourhood (or whole graph when `roots` is empty) to
/// Graphviz DOT. Curated facts are red, extracted facts blue — matching the
/// colour code described for Figure 2 of the paper.
pub fn to_dot(g: &DynamicGraph, roots: &[VertexId], max_hops: usize) -> String {
    let include: Option<crate::hash::FxHashSet<VertexId>> = if roots.is_empty() {
        None
    } else {
        let mut keep = crate::hash::FxHashSet::default();
        for &r in roots {
            keep.insert(r);
            for (v, _) in crate::algo::bfs_distances(g, r, crate::algo::Direction::Both, max_hops) {
                keep.insert(v);
            }
        }
        Some(keep)
    };
    let wanted = |v: VertexId| include.as_ref().is_none_or(|s| s.contains(&v));

    let mut out =
        String::from("digraph nous {\n  rankdir=LR;\n  node [shape=box, style=rounded];\n");
    for v in g.iter_vertices().filter(|&v| wanted(v)) {
        let label = match g.label(v) {
            Some(t) => format!("{}\\n({t})", escape_dot(g.vertex_name(v))),
            None => escape_dot(g.vertex_name(v)),
        };
        let _ = writeln!(out, "  v{} [label=\"{label}\"];", v.0);
    }
    for (_, e) in g.iter_edges() {
        if !wanted(e.src) || !wanted(e.dst) {
            continue;
        }
        let color = if e.provenance.is_curated() {
            "red"
        } else {
            "blue"
        };
        let _ = writeln!(
            out,
            "  v{} -> v{} [label=\"{} ({:.2})\", color={color}];",
            e.src.0,
            e.dst.0,
            escape_dot(g.predicate_name(e.pred)),
            e.confidence
        );
    }
    out.push_str("}\n");
    out
}

/// JSON node-link export (the shape a web front-end like the paper's Figure 6
/// UI would consume): `{"nodes": [...], "links": [...]}`.
pub fn to_json_graph(g: &DynamicGraph, roots: &[VertexId], max_hops: usize) -> String {
    #[derive(Serialize)]
    struct Node<'a> {
        id: u32,
        name: &'a str,
        label: Option<&'a str>,
    }
    #[derive(Serialize)]
    struct Link<'a> {
        source: u32,
        target: u32,
        predicate: &'a str,
        confidence: f32,
        provenance: &'static str,
        at: u64,
    }
    #[derive(Serialize)]
    struct Doc<'a> {
        nodes: Vec<Node<'a>>,
        links: Vec<Link<'a>>,
    }

    let include: Option<crate::hash::FxHashSet<VertexId>> = if roots.is_empty() {
        None
    } else {
        let mut keep = crate::hash::FxHashSet::default();
        for &r in roots {
            keep.insert(r);
            for (v, _) in crate::algo::bfs_distances(g, r, crate::algo::Direction::Both, max_hops) {
                keep.insert(v);
            }
        }
        Some(keep)
    };
    let wanted = |v: VertexId| include.as_ref().is_none_or(|s| s.contains(&v));

    let doc = Doc {
        nodes: g
            .iter_vertices()
            .filter(|&v| wanted(v))
            .map(|v| Node {
                id: v.0,
                name: g.vertex_name(v),
                label: g.label(v),
            })
            .collect(),
        links: g
            .iter_edges()
            .filter(|(_, e)| wanted(e.src) && wanted(e.dst))
            .map(|(_, e)| Link {
                source: e.src.0,
                target: e.dst.0,
                predicate: g.predicate_name(e.pred),
                confidence: e.confidence,
                provenance: e.provenance.tag(),
                at: e.at,
            })
            .collect(),
    };
    serde_json::to_string_pretty(&doc).expect("export structs serialize infallibly")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edge::Provenance;

    fn sample() -> DynamicGraph {
        let mut g = DynamicGraph::new();
        let dji = g.ensure_vertex("DJI");
        let sz = g.ensure_vertex("Shenzhen");
        let drone = g.ensure_vertex("Phantom 4");
        g.set_label(dji, "Company");
        let loc = g.intern_predicate("isLocatedIn");
        let makes = g.intern_predicate("manufactures");
        g.add_edge_at(dji, loc, sz, 10, 0.95, Provenance::Curated);
        g.add_edge_at(
            dji,
            makes,
            drone,
            20,
            0.62,
            Provenance::Extracted { doc_id: 3 },
        );
        g
    }

    #[test]
    fn compact_snapshot_roundtrips_losslessly() {
        let mut g = sample();
        // Edge props, vertex props and a tombstone must all survive.
        let dji = g.vertex_id("DJI").unwrap();
        g.vertex_data_mut(dji).props.set("hq", "Shenzhen");
        let loc = g.predicate_id("isLocatedIn").unwrap();
        let sz = g.vertex_id("Shenzhen").unwrap();
        let dead = g.edges_matching(dji, loc, sz).next().unwrap();
        g.remove_edge(dead);
        let makes = g.predicate_id("manufactures").unwrap();
        let drone = g.vertex_id("Phantom 4").unwrap();
        let live = g.edges_matching(dji, makes, drone).next().unwrap();
        let mut rich = Edge::new(drone, loc, sz, 30, 0.5, Provenance::Extracted { doc_id: 8 });
        rich.props
            .set("args", PropValue::List(vec!["in:March".into()]));
        rich.props.set("rank", 3i64);
        let rich_id = g.add_edge(rich);
        let blob = to_compact(&g);
        let back = from_compact(&blob).unwrap();
        assert_eq!(back.vertex_count(), g.vertex_count());
        assert_eq!(back.log_len(), g.log_len(), "tombstones preserved");
        assert_eq!(back.edge_count(), g.edge_count());
        assert!(!back.is_live(dead));
        assert!(back.is_live(live));
        assert_eq!(back.edge(live), g.edge(live));
        assert_eq!(back.edge(rich_id), g.edge(rich_id), "edge props preserved");
        assert_eq!(
            back.vertex_data(dji).props.get("hq"),
            Some(&PropValue::Str("Shenzhen".into()))
        );
        assert_eq!(back.label(dji), Some("Company"));
        // Ids are creation-ordered, so a second encode is byte-identical.
        assert_eq!(to_compact(&back), blob);
    }

    #[test]
    fn compact_snapshot_rejects_corruption() {
        let g = sample();
        let blob = to_compact(&g);
        // Truncation.
        assert!(matches!(
            from_compact(&blob[..blob.len() - 3]),
            Err(SnapshotError::Corrupt(_))
        ));
        // Bit flip in the body breaks the checksum.
        let mut flipped = blob.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x40;
        assert!(matches!(
            from_compact(&flipped),
            Err(SnapshotError::Corrupt("compact snapshot checksum mismatch"))
        ));
        // Wrong magic.
        let mut bad = blob;
        bad[0] = b'X';
        assert!(matches!(
            from_compact(&bad),
            Err(SnapshotError::Corrupt("bad compact snapshot magic"))
        ));
    }

    #[test]
    fn dot_marks_provenance_colours() {
        let g = sample();
        let dot = to_dot(&g, &[], 0);
        assert!(dot.contains("color=red"));
        assert!(dot.contains("color=blue"));
        assert!(dot.contains("isLocatedIn (0.95)"));
        assert!(dot.contains("DJI\\n(Company)"));
    }

    #[test]
    fn dot_roots_restrict_to_neighbourhood() {
        let mut g = sample();
        g.ensure_vertex("unrelated island");
        let dji = g.vertex_id("DJI").unwrap();
        let dot = to_dot(&g, &[dji], 1);
        assert!(dot.contains("Shenzhen"));
        assert!(!dot.contains("unrelated island"));
    }

    #[test]
    fn json_graph_export_parses_and_filters() {
        let mut g = sample();
        g.ensure_vertex("unrelated island");
        let dji = g.vertex_id("DJI").unwrap();
        let doc: serde_json::Value = serde_json::from_str(&to_json_graph(&g, &[dji], 2)).unwrap();
        let nodes = doc["nodes"].as_array().unwrap();
        assert_eq!(nodes.len(), 3);
        let links = doc["links"].as_array().unwrap();
        assert_eq!(links.len(), 2);
        assert!(links.iter().any(|l| l["provenance"] == "extracted"));
    }
}
