//! [`Text`]: the one string type of values, dictionaries and the wire.

use std::borrow::Borrow;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// An immutable, shared string behind one 8-byte pointer.
///
/// An `Arc` of a `str` is a fat pointer (16 bytes) and would make every
/// [`Value`](super::Value) 24 bytes; `Text` points at an `Arc`'d `Box<str>`
/// instead, so a value is 16. A clone bumps the count: a dictionary entry
/// and every value read from it share one allocation. The price is a
/// second allocation per string, so rows save only where values share
/// their strings: a 7-byte string held once costs 80 heap bytes (glibc
/// chunks of 48 for the counters and the box and 32 for the bytes) where an
/// `Arc` of a `str` cost 32. Equality, ordering and hashing are those of
/// the bytes, the same as `str`'s, so a map keyed by `Text` is looked up by
/// `&str`.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Text(Arc<Box<str>>);

impl Text {
    /// True iff both handles share one allocation — identity, not content
    /// equality.
    pub fn ptr_eq(a: &Text, b: &Text) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
    }
}

impl Deref for Text {
    type Target = str;

    fn deref(&self) -> &str {
        &self.0
    }
}

impl Borrow<str> for Text {
    fn borrow(&self) -> &str {
        self
    }
}

impl From<&str> for Text {
    fn from(s: &str) -> Self {
        Text(Arc::new(s.into()))
    }
}

/// Keeps the `String`'s buffer (shrunk to its length if it had spare room).
impl From<String> for Text {
    fn from(s: String) -> Self {
        Text(Arc::new(s.into_boxed_str()))
    }
}

impl fmt::Debug for Text {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

impl fmt::Display for Text {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&**self, f)
    }
}
