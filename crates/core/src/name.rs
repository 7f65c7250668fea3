//! [`Name`]: an interned string handle, one pointer wide.
//!
//! Workload names, policy names and trace labels come from a small
//! closed set but travel with every arrival, completion and exported
//! record. A `Name` is a pointer into a process-wide table that holds
//! each distinct text once: cloning it copies the pointer, two names
//! are equal exactly when they point at the same entry, and it orders,
//! hashes and prints as the string it holds.
//!
//! # The vocabulary is closed
//!
//! An interned text is never freed: the table only grows, by one entry
//! (the text plus a 16-byte slot) per *distinct* text, and interning a
//! text it already holds adds nothing. That is the right trade for the
//! names this workspace makes — catalog applications, policy names,
//! trace labels and the handful of names tests build — whose number is
//! fixed by the code, not by how long a run lasts or how many arrivals
//! it sees. Text that grows with the input (per-arrival ids, user
//! strings) must stay a `String`, not become a `Name`.

use std::borrow::Borrow;
use std::collections::BTreeMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::{Mutex, PoisonError};

/// Every text interned so far, each mapped to its one entry.
static TABLE: Mutex<BTreeMap<&'static str, &'static &'static str>> = Mutex::new(BTreeMap::new());

/// An immutable interned string: 8 bytes, free to clone, compared by
/// pointer.
///
/// The handle contract: `size_of::<Name>() == 8` (and so is
/// `Option<Name>`); `clone` copies a pointer; `==` compares pointers,
/// which is text equality because each text is interned once; `Ord`,
/// `Hash`, `Display` and `Debug` are those of the text, so a
/// `BTreeMap<Name, _>` or `HashMap<Name, _>` answers `&str` lookups
/// through [`Borrow<str>`]. Making a `Name` takes the table's lock and
/// searches it by text; passing one on is a clone.
///
/// # Examples
///
/// ```
/// use adrias_core::Name;
///
/// let label = Name::from("redis"); // the static text itself, uncopied
/// let built = Name::from(format!("ibench-{}", "llc"));
/// let copy = built.clone(); // a pointer copy
/// assert_eq!(copy, "ibench-llc");
/// assert_eq!(Name::from(String::from("redis")), label); // one entry per text
/// assert_eq!(label.len(), 5); // derefs to `str`
/// assert_eq!(std::mem::size_of::<Name>(), 8);
/// ```
#[derive(Clone)]
pub struct Name(&'static &'static str);

impl Name {
    /// The entry for `text`, made by `keep` the first time the text is
    /// seen; `keep` returns the same text with a `'static` lifetime.
    fn intern<T: Borrow<str>>(text: T, keep: fn(T) -> &'static str) -> Name {
        let mut table = TABLE.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(&entry) = table.get(text.borrow()) {
            return Name(entry);
        }
        let kept = keep(text);
        let entry: &'static &'static str = Box::leak(Box::new(kept));
        table.insert(kept, entry);
        Name(entry)
    }
}

/// Interns a static text without copying it.
impl From<&'static str> for Name {
    fn from(s: &'static str) -> Self {
        Name::intern(s, |s| s)
    }
}

/// Interns an owned text; the string is kept only if the text is new.
impl From<String> for Name {
    fn from(s: String) -> Self {
        Name::intern(s, |s| Box::leak(s.into_boxed_str()))
    }
}

impl Deref for Name {
    type Target = str;

    fn deref(&self) -> &str {
        self.0
    }
}

/// A map keyed by `Name` answers `&str` lookups: equality, order and
/// hash are those of the text.
impl Borrow<str> for Name {
    fn borrow(&self) -> &str {
        self
    }
}

impl PartialEq for Name {
    fn eq(&self, other: &Name) -> bool {
        std::ptr::eq(self.0, other.0)
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
        if self == other {
            std::cmp::Ordering::Equal
        } else {
            (**self).cmp(&**other)
        }
    }
}

impl Hash for Name {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (**self).hash(state);
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

    /// Tests that intern take this lock, so a table length read inside
    /// one is not moved by another.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static SERIAL: Mutex<()> = Mutex::new(());
        SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn table_len() -> usize {
        TABLE.lock().unwrap_or_else(PoisonError::into_inner).len()
    }

    #[test]
    fn static_and_shared_names_with_equal_text_are_equal_and_ordered_alike() {
        let _serial = serial();
        let fixed = Name::from("gmm");
        let built = Name::from(String::from("gmm"));
        assert_eq!(fixed, built);
        assert!(std::ptr::eq(fixed.0, built.0));
        assert_eq!(fixed.cmp(&built), std::cmp::Ordering::Equal);
        let (a, b) = (Name::from("a"), Name::from(String::from("b")));
        assert!(a < b);
        assert_ne!(a, b);
        assert_eq!(built, "gmm");
        assert_eq!(format!("{built} {built:?}"), "gmm \"gmm\"");
    }

    #[test]
    fn interning_a_text_twice_does_not_grow_the_table() {
        let _serial = serial();
        let first = Name::from(String::from("name-table-growth-probe"));
        let len = table_len();
        let again = [
            Name::from("name-table-growth-probe"),
            Name::from(String::from("name-table-growth-probe")),
        ];
        assert_eq!(table_len(), len);
        for name in &again {
            assert!(std::ptr::eq(name.0, first.0));
            // The owned copy was dropped, not kept: one text per entry.
            assert!(std::ptr::eq(name.as_ptr(), first.as_ptr()));
        }
        let _new = Name::from(String::from("name-table-growth-probe-2"));
        assert_eq!(table_len(), len + 1);
    }

    #[test]
    fn clones_share_the_allocation() {
        let _serial = serial();
        let built = Name::from(String::from("ibench-llc"));
        let copy = built.clone();
        assert!(std::ptr::eq(&*built, &*copy));
    }

    #[test]
    fn a_map_keyed_by_name_is_looked_up_by_str() {
        let _serial = serial();
        let mut tree = std::collections::BTreeMap::new();
        tree.insert(Name::from(String::from("gmm")), 1);
        tree.insert(Name::from("redis"), 2);
        assert_eq!(tree.get("gmm"), Some(&1));
        assert_eq!(tree.get("redis"), Some(&2));
        assert_eq!(tree.get("pca"), None);
        let mut hash = std::collections::HashMap::new();
        hash.insert(Name::from("gmm"), 1);
        hash.insert(Name::from(String::from("redis")), 2);
        assert_eq!(hash.get("gmm"), Some(&1));
        assert_eq!(hash.get("redis"), Some(&2));
        assert_eq!(hash.get("pca"), None);
    }

    #[test]
    fn order_and_hash_are_those_of_the_text() {
        let _serial = serial();
        use std::collections::hash_map::DefaultHasher;
        let hash_of = |h: &dyn Fn(&mut DefaultHasher)| {
            let mut state = DefaultHasher::new();
            h(&mut state);
            state.finish()
        };
        // Interned in the opposite order to the text's.
        let (late, early) = (Name::from("zz-order"), Name::from("aa-order"));
        assert!(early < late);
        assert_eq!(early.cmp(&late), "aa-order".cmp("zz-order"));
        let name = Name::from(String::from("lr"));
        assert_eq!(hash_of(&|s| name.hash(s)), hash_of(&|s| "lr".hash(s)));
    }
}
