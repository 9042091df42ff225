//! String interning for the linker's own tables.

use std::collections::HashMap;

/// Names interned in first-seen order: a dense `u32` id per distinct name.
#[derive(Debug, Clone, Default)]
pub(crate) struct Names {
    names: Vec<String>,
    ids: HashMap<String, u32>,
}

impl Names {
    /// Intern `names` in order (ids `0..names.len()`). `None` on a repeat.
    pub(crate) fn from_table(names: Vec<String>) -> Option<Self> {
        let ids: HashMap<String, u32> = names.iter().cloned().zip(0..).collect();
        (ids.len() == names.len()).then_some(Self { names, ids })
    }

    pub(crate) fn intern(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        let id = self.names.len() as u32;
        self.names.push(name.to_owned());
        self.ids.insert(name.to_owned(), id);
        id
    }

    pub(crate) fn get(&self, name: &str) -> Option<u32> {
        self.ids.get(name).copied()
    }

    pub(crate) fn name(&self, id: u32) -> &str {
        &self.names[id as usize]
    }

    /// Every name, indexed by id.
    pub(crate) fn table(&self) -> &[String] {
        &self.names
    }
}
