//! The DOT and JSON node-link exports, pinned byte for byte.
//!
//! The graph carries a tombstoned edge, a relabelled vertex, an escaped
//! name and one edge whose timestamp is older than the edge before it, so
//! the pins hold the exports to edge-log order (not time order), to live
//! edges only, and to the newest label.

use nous_graph::snapshot::{to_dot, to_json_graph};
use nous_graph::{DynamicGraph, EdgeId, LayeredSnapshot, Provenance};

/// The graph, and the snapshot the session would serve of it: a base
/// published after the first two facts, then two overlays.
fn graph() -> (DynamicGraph, LayeredSnapshot) {
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
    let base = LayeredSnapshot::freeze(&g);

    let parrot = g.ensure_vertex("Parrot \"Anafi\"");
    let rival = g.intern_predicate("competesWith");
    g.add_edge_at(
        parrot,
        rival,
        dji,
        30,
        0.5,
        Provenance::Extracted { doc_id: 4 },
    );
    g.set_label(dji, "Manufacturer");
    g.ensure_vertex("unrelated island");
    let one = base.with_overlay(base.capture_delta(&g));

    // Older than the edge before it: log order and time order differ.
    g.add_edge_at(drone, loc, sz, 5, 0.4, Provenance::Extracted { doc_id: 5 });
    g.remove_edge(EdgeId(1));
    let two = one.with_overlay(one.capture_delta(&g));
    (g, two)
}

const DOT_ALL: &str = r#"digraph nous {
  rankdir=LR;
  node [shape=box, style=rounded];
  v0 [label="DJI\n(Manufacturer)"];
  v1 [label="Shenzhen"];
  v2 [label="Phantom 4"];
  v3 [label="Parrot \"Anafi\""];
  v4 [label="unrelated island"];
  v0 -> v1 [label="isLocatedIn (0.95)", color=red];
  v3 -> v0 [label="competesWith (0.50)", color=blue];
  v2 -> v1 [label="isLocatedIn (0.40)", color=blue];
}
"#;
const DOT_ROOTED: &str = r#"digraph nous {
  rankdir=LR;
  node [shape=box, style=rounded];
  v0 [label="DJI\n(Manufacturer)"];
  v1 [label="Shenzhen"];
  v3 [label="Parrot \"Anafi\""];
  v0 -> v1 [label="isLocatedIn (0.95)", color=red];
  v3 -> v0 [label="competesWith (0.50)", color=blue];
}
"#;
const JSON_ALL: &str = r#"{
  "nodes": [
    {
      "id": 0,
      "name": "DJI",
      "label": "Manufacturer"
    },
    {
      "id": 1,
      "name": "Shenzhen",
      "label": null
    },
    {
      "id": 2,
      "name": "Phantom 4",
      "label": null
    },
    {
      "id": 3,
      "name": "Parrot \"Anafi\"",
      "label": null
    },
    {
      "id": 4,
      "name": "unrelated island",
      "label": null
    }
  ],
  "links": [
    {
      "source": 0,
      "target": 1,
      "predicate": "isLocatedIn",
      "confidence": 0.949999988079071,
      "provenance": "curated",
      "at": 10
    },
    {
      "source": 3,
      "target": 0,
      "predicate": "competesWith",
      "confidence": 0.5,
      "provenance": "extracted",
      "at": 30
    },
    {
      "source": 2,
      "target": 1,
      "predicate": "isLocatedIn",
      "confidence": 0.4000000059604645,
      "provenance": "extracted",
      "at": 5
    }
  ]
}"#;
const JSON_ROOTED: &str = r#"{
  "nodes": [
    {
      "id": 0,
      "name": "DJI",
      "label": "Manufacturer"
    },
    {
      "id": 1,
      "name": "Shenzhen",
      "label": null
    },
    {
      "id": 3,
      "name": "Parrot \"Anafi\"",
      "label": null
    }
  ],
  "links": [
    {
      "source": 0,
      "target": 1,
      "predicate": "isLocatedIn",
      "confidence": 0.949999988079071,
      "provenance": "curated",
      "at": 10
    },
    {
      "source": 3,
      "target": 0,
      "predicate": "competesWith",
      "confidence": 0.5,
      "provenance": "extracted",
      "at": 30
    }
  ]
}"#;

#[test]
fn exports_are_pinned_byte_for_byte() {
    let (g, stacked) = graph();
    let parrot = g.vertex_id("Parrot \"Anafi\"").unwrap();
    for view in [stacked, LayeredSnapshot::freeze(&g)] {
        assert_eq!(to_dot(&view, &[], 0), DOT_ALL);
        assert_eq!(to_dot(&view, &[parrot], 2), DOT_ROOTED);
        assert_eq!(to_json_graph(&view, &[], 0), JSON_ALL);
        assert_eq!(to_json_graph(&view, &[parrot], 2), JSON_ROOTED);
    }
}
