//! Event type interning and schemas.
//!
//! Every event belongs to an *event type* "described by a schema that
//! specifies the set of event attributes and the domains of their values"
//! (Section 2.1). Event types are referred to by name in queries (`OakSt`,
//! `Laptop`, ...) but the hot execution path only ever sees a dense integer
//! [`EventTypeId`], produced by the [`Catalog`] interner. Attribute names are
//! likewise resolved to positional [`AttrId`]s at query-compile time.

use std::collections::HashMap;
use std::fmt;

/// Dense identifier of an interned event type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct EventTypeId(pub u32);

impl EventTypeId {
    /// The id as a usable index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for EventTypeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "E{}", self.0)
    }
}

/// Positional identifier of an attribute within a type's schema.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AttrId(pub u16);

impl AttrId {
    /// The id as a usable index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The attribute layout of one event type.
///
/// Attributes are positional: an event of this type stores its attribute
/// values in a `Vec<Value>` parallel to `attr_names`.
#[derive(Debug, Clone, Default)]
pub struct Schema {
    attr_names: Vec<String>,
}

impl Schema {
    /// An empty schema (events with no attributes beyond type and time).
    pub fn empty() -> Self {
        Schema {
            attr_names: Vec::new(),
        }
    }

    /// Build a schema from attribute names. Names must be unique.
    pub fn new<S: Into<String>>(names: impl IntoIterator<Item = S>) -> Self {
        let attr_names: Vec<String> = names.into_iter().map(Into::into).collect();
        debug_assert!(
            {
                let mut sorted = attr_names.clone();
                sorted.sort();
                sorted.windows(2).all(|w| w[0] != w[1])
            },
            "duplicate attribute names in schema"
        );
        Schema { attr_names }
    }

    /// Resolve an attribute name to its position.
    pub fn attr(&self, name: &str) -> Option<AttrId> {
        self.attr_names
            .iter()
            .position(|n| n == name)
            .map(|i| AttrId(i as u16))
    }

    /// Number of attributes.
    pub fn len(&self) -> usize {
        self.attr_names.len()
    }

    /// True if the schema has no attributes.
    pub fn is_empty(&self) -> bool {
        self.attr_names.is_empty()
    }

    /// Iterate over attribute names in positional order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.attr_names.iter().map(String::as_str)
    }
}

/// Registry of event types: name ⇄ id plus per-type schema.
///
/// The catalog is the single source of truth shared by the parser, the
/// stream generators, and the executors. Registering the same name twice
/// returns the original id (the schema of the first registration wins).
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    names: Vec<String>,
    schemas: Vec<Schema>,
    by_name: HashMap<String, EventTypeId>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern `name`, returning its id. Idempotent.
    pub fn register(&mut self, name: &str) -> EventTypeId {
        self.register_with_schema(name, Schema::empty())
    }

    /// Intern `name` with an attribute schema. If the type already exists
    /// its existing schema is kept.
    pub fn register_with_schema(&mut self, name: &str, schema: Schema) -> EventTypeId {
        if let Some(&id) = self.by_name.get(name) {
            return id;
        }
        let id = EventTypeId(self.names.len() as u32);
        self.names.push(name.to_string());
        self.schemas.push(schema);
        self.by_name.insert(name.to_string(), id);
        id
    }

    /// Look up a type by name without registering it.
    pub fn lookup(&self, name: &str) -> Option<EventTypeId> {
        self.by_name.get(name).copied()
    }

    /// Name of type `id`. Panics if the id was not produced by this catalog.
    pub fn name(&self, id: EventTypeId) -> &str {
        &self.names[id.index()]
    }

    /// Schema of type `id`.
    pub fn schema(&self, id: EventTypeId) -> &Schema {
        &self.schemas[id.index()]
    }

    /// Number of registered types.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True if no types are registered.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterate over all `(id, name)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (EventTypeId, &str)> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, n)| (EventTypeId(i as u32), n.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let mut c = Catalog::new();
        let a = c.register("OakSt");
        let b = c.register("MainSt");
        assert_ne!(a, b);
        assert_eq!(c.register("OakSt"), a);
        assert_eq!(c.len(), 2);
        assert_eq!(c.name(a), "OakSt");
        assert_eq!(c.lookup("MainSt"), Some(b));
        assert_eq!(c.lookup("ElmSt"), None);
    }

    #[test]
    fn schemas_resolve_attributes() {
        let mut c = Catalog::new();
        let id = c.register_with_schema("Pos", Schema::new(["vehicle", "speed"]));
        let s = c.schema(id);
        assert_eq!(s.len(), 2);
        assert_eq!(s.attr("vehicle"), Some(AttrId(0)));
        assert_eq!(s.attr("speed"), Some(AttrId(1)));
        assert_eq!(s.attr("missing"), None);
        assert_eq!(s.names().collect::<Vec<_>>(), vec!["vehicle", "speed"]);
    }

    #[test]
    fn first_schema_wins() {
        let mut c = Catalog::new();
        let id = c.register_with_schema("T", Schema::new(["a"]));
        let again = c.register_with_schema("T", Schema::new(["b"]));
        assert_eq!(id, again);
        assert_eq!(c.schema(id).attr("a"), Some(AttrId(0)));
        assert_eq!(c.schema(id).attr("b"), None);
    }

    #[test]
    fn iteration_follows_registration_order() {
        let mut c = Catalog::new();
        c.register("A");
        c.register("B");
        let pairs: Vec<_> = c.iter().map(|(id, n)| (id.0, n.to_string())).collect();
        assert_eq!(pairs, vec![(0, "A".to_string()), (1, "B".to_string())]);
    }

    #[test]
    fn empty_schema() {
        let s = Schema::empty();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
    }
}
