//! Identifier newtypes and string interners.
//!
//! All engine-internal references are small dense integers so adjacency lists
//! stay cache-friendly and maps can use [`crate::hash::FxHashMap`]. Vertex
//! names and predicate names are interned once; everything downstream deals
//! in `u32`s.

use crate::hash::FxHashMap;
use std::fmt;

/// Logical timestamp of an edge insertion. The corpus generator uses days
/// since its epoch; the engine only requires monotone comparability.
pub type Timestamp = u64;

macro_rules! id_newtype {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub u32);

        impl $name {
            /// Dense index into engine-internal vectors.
            #[inline]
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!(stringify!($name), "({})"), self.0)
            }
        }
    };
}

id_newtype!(
    /// Dense identifier of a vertex (entity) in a [`crate::DynamicGraph`].
    VertexId
);
id_newtype!(
    /// Dense identifier of an edge in the temporal edge log: its log
    /// position, fixed for the life of the graph. Removal tombstones the
    /// edge in place and nothing rewrites the log, and the checkpoint keeps
    /// tombstones, so an id names the same edge across checkpoint and
    /// recovery too.
    EdgeId
);
id_newtype!(
    /// Dense identifier of an interned predicate (relation type).
    PredicateId
);

/// Bidirectional string interner: `name -> u32` and `u32 -> name`.
///
/// Insertion order defines the dense id space, so snapshots can rebuild the
/// interner by re-inserting names in order.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Interner {
    names: Vec<String>,
    index: FxHashMap<String, u32>,
}

impl Interner {
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern `name`, returning its dense id (existing or new).
    pub fn intern(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.index.get(name) {
            return id;
        }
        let id = self.names.len() as u32;
        self.names.push(name.to_owned());
        self.index.insert(name.to_owned(), id);
        id
    }

    /// Look up an already-interned name.
    pub fn get(&self, name: &str) -> Option<u32> {
        self.index.get(name).copied()
    }

    /// Resolve a dense id back to its name. Panics on a foreign id, which is
    /// always a logic error (ids are only minted by this interner).
    pub fn resolve(&self, id: u32) -> &str {
        &self.names[id as usize]
    }

    pub fn len(&self) -> usize {
        self.names.len()
    }

    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterate `(id, name)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &str)> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, n)| (i as u32, n.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut it = Interner::new();
        let a = it.intern("DJI");
        let b = it.intern("DJI");
        assert_eq!(a, b);
        assert_eq!(it.len(), 1);
    }

    #[test]
    fn ids_are_dense_in_insertion_order() {
        let mut it = Interner::new();
        assert_eq!(it.intern("a"), 0);
        assert_eq!(it.intern("b"), 1);
        assert_eq!(it.intern("a"), 0);
        assert_eq!(it.intern("c"), 2);
        assert_eq!(it.resolve(1), "b");
    }

    #[test]
    fn get_does_not_insert() {
        let mut it = Interner::new();
        assert!(it.get("x").is_none());
        it.intern("x");
        assert_eq!(it.get("x"), Some(0));
        assert_eq!(it.len(), 1);
    }

    #[test]
    fn id_newtype_display_and_index() {
        let v = VertexId(7);
        assert_eq!(v.index(), 7);
        assert_eq!(v.to_string(), "VertexId(7)");
    }
}
