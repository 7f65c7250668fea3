//! [`Name`]: a string handle that is free to clone.
//!
//! Workload names, policy names and trace labels come from a small
//! closed set but travel with every arrival, completion and exported
//! record. A `Name` is either a `&'static str` label or a
//! reference-counted `str`; cloning either never touches the heap, and
//! it compares, orders and prints as the string it holds.

use std::borrow::Borrow;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// An immutable string whose clones share one allocation (or none, for
/// a `&'static str`).
///
/// # Examples
///
/// ```
/// use adrias_core::Name;
///
/// let label = Name::from("redis"); // static: no allocation at all
/// let built = Name::from(format!("ibench-{}", "llc")); // one allocation
/// let copy = built.clone(); // none
/// assert_eq!(copy, "ibench-llc");
/// assert_eq!(label.len(), 5); // derefs to `str`
/// ```
#[derive(Clone)]
pub struct Name(Repr);

#[derive(Clone)]
enum Repr {
    Static(&'static str),
    Shared(Arc<str>),
}

impl From<&'static str> for Name {
    fn from(s: &'static str) -> Self {
        Name(Repr::Static(s))
    }
}

impl From<String> for Name {
    fn from(s: String) -> Self {
        Name(Repr::Shared(s.into()))
    }
}

impl Deref for Name {
    type Target = str;

    fn deref(&self) -> &str {
        match &self.0 {
            Repr::Static(s) => s,
            Repr::Shared(s) => s,
        }
    }
}

/// A map keyed by `Name` answers `&str` lookups: equality and order
/// are those of the text.
impl Borrow<str> for Name {
    fn borrow(&self) -> &str {
        self
    }
}

impl PartialEq for Name {
    fn eq(&self, other: &Name) -> bool {
        **self == **other
    }
}

impl Eq for Name {}

impl PartialEq<&str> for Name {
    fn eq(&self, other: &&str) -> bool {
        **self == **other
    }
}

impl PartialOrd for Name {
    fn partial_cmp(&self, other: &Name) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Name {
    fn cmp(&self, other: &Name) -> std::cmp::Ordering {
        (**self).cmp(&**other)
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self)
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_and_shared_names_with_equal_text_are_equal_and_ordered_alike() {
        let fixed = Name::from("gmm");
        let built = Name::from(String::from("gmm"));
        assert_eq!(fixed, built);
        assert_eq!(fixed.cmp(&built), std::cmp::Ordering::Equal);
        let (a, b) = (Name::from("a"), Name::from(String::from("b")));
        assert!(a < b);
        assert_eq!(built, "gmm");
        assert_eq!(format!("{built} {built:?}"), "gmm \"gmm\"");
    }

    #[test]
    fn a_map_keyed_by_name_is_looked_up_by_str() {
        let mut map = std::collections::BTreeMap::new();
        map.insert(Name::from(String::from("gmm")), 1);
        map.insert(Name::from("redis"), 2);
        assert_eq!(map.get("gmm"), Some(&1));
        assert_eq!(map.get("redis"), Some(&2));
        assert_eq!(map.get("pca"), None);
    }

    #[test]
    fn clones_share_the_allocation() {
        let built = Name::from(String::from("ibench-llc"));
        let copy = built.clone();
        assert!(std::ptr::eq(&*built, &*copy));
    }
}
