//! The encoding of checkpointed values: every key, value and output a
//! job carries is [`Durable`], written with [`dod_obs::json`]'s
//! primitives and read back through its one reader. Floats round-trip
//! bit-exactly: Rust's shortest `Display` repr is re-parsed to the
//! identical bits (rule 3 of the reader's contract), which is what makes
//! resumed runs byte-identical to uninterrupted ones.

use std::time::Duration;

use dod_obs::json::{self, Json};

/// A value that can round-trip through a checkpoint record.
///
/// `decode(encode(v)) == v` must hold bit-exactly — resumed runs are
/// asserted byte-identical to uninterrupted ones, so lossy encodings
/// (e.g. floats through a fixed number of digits) are not acceptable.
pub trait Durable: Sized {
    /// Appends the JSON encoding of `self`.
    fn encode(&self, out: &mut String);
    /// Decodes a parsed JSON value; `None` on any shape mismatch.
    fn decode(v: &Json) -> Option<Self>;
}

impl Durable for u32 {
    fn encode(&self, out: &mut String) {
        out.push_str(&self.to_string());
    }
    fn decode(v: &Json) -> Option<Self> {
        v.as_u64().and_then(|n| u32::try_from(n).ok())
    }
}

impl Durable for u64 {
    fn encode(&self, out: &mut String) {
        out.push_str(&self.to_string());
    }
    fn decode(v: &Json) -> Option<Self> {
        v.as_u64()
    }
}

impl Durable for usize {
    fn encode(&self, out: &mut String) {
        out.push_str(&(*self as u64).to_string());
    }
    fn decode(v: &Json) -> Option<Self> {
        v.as_usize()
    }
}

impl Durable for bool {
    fn encode(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
    fn decode(v: &Json) -> Option<Self> {
        match v {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

impl Durable for Duration {
    fn encode(&self, out: &mut String) {
        out.push_str(&(self.as_nanos() as u64).to_string());
    }
    fn decode(v: &Json) -> Option<Self> {
        v.as_u64().map(Duration::from_nanos)
    }
}

impl Durable for f64 {
    fn encode(&self, out: &mut String) {
        if self.is_finite() {
            // Shortest round-trip repr: re-parsing yields identical bits.
            out.push_str(&format!("{self}"));
        } else if self.is_nan() {
            out.push_str("\"NaN\"");
        } else if *self > 0.0 {
            out.push_str("\"inf\"");
        } else {
            out.push_str("\"-inf\"");
        }
    }
    fn decode(v: &Json) -> Option<Self> {
        match v.as_str() {
            None => v.as_f64(),
            Some("NaN") => Some(f64::NAN),
            Some("inf") => Some(f64::INFINITY),
            Some("-inf") => Some(f64::NEG_INFINITY),
            Some(_) => None,
        }
    }
}

impl Durable for String {
    fn encode(&self, out: &mut String) {
        json::push_str(out, self);
    }
    fn decode(v: &Json) -> Option<Self> {
        v.as_str().map(str::to_string)
    }
}

impl<T: Durable> Durable for Vec<T> {
    fn encode(&self, out: &mut String) {
        out.push('[');
        for (i, item) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            item.encode(out);
        }
        out.push(']');
    }
    fn decode(v: &Json) -> Option<Self> {
        v.as_arr()?.iter().map(T::decode).collect()
    }
}

/// `None` is `null`; `Some(v)` is `v`'s encoding.
impl<T: Durable> Durable for Option<T> {
    fn encode(&self, out: &mut String) {
        match self {
            Some(v) => v.encode(out),
            None => out.push_str("null"),
        }
    }
    fn decode(v: &Json) -> Option<Self> {
        match v {
            Json::Null => Some(None),
            v => T::decode(v).map(Some),
        }
    }
}

impl<A: Durable, B: Durable> Durable for (A, B) {
    fn encode(&self, out: &mut String) {
        out.push('[');
        self.0.encode(out);
        out.push(',');
        self.1.encode(out);
        out.push(']');
    }
    fn decode(v: &Json) -> Option<Self> {
        match v.as_arr()? {
            [a, b] => Some((A::decode(a)?, B::decode(b)?)),
            _ => None,
        }
    }
}

impl<A: Durable, B: Durable, C: Durable> Durable for (A, B, C) {
    fn encode(&self, out: &mut String) {
        out.push('[');
        self.0.encode(out);
        out.push(',');
        self.1.encode(out);
        out.push(',');
        self.2.encode(out);
        out.push(']');
    }
    fn decode(v: &Json) -> Option<Self> {
        match v.as_arr()? {
            [a, b, c] => Some((A::decode(a)?, B::decode(b)?, C::decode(c)?)),
            _ => None,
        }
    }
}
