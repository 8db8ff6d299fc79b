//! Offline stand-in for the `serde` crate.
//!
//! The build environment has no crates registry, so the workspace vendors a
//! minimal serialization framework under serde's name. Instead of serde's
//! format-generic `Serializer`/`Visitor` machinery, the traits here encode
//! directly into the one wire format this workspace uses (the `erm-transport`
//! binary codec):
//!
//! * fixed-width integers and floats as little-endian raw bytes
//!   (`usize`/`isize` travel as 64-bit),
//! * `bool` as one byte (0/1),
//! * `char` as a `u32` scalar value,
//! * strings as a `u32` length followed by UTF-8 bytes,
//! * `Option` as a 0/1 tag followed by the value,
//! * sequences and maps as a `u32` length followed by the elements,
//! * enum variants (including `Result`) as a `u32` variant index followed by
//!   the payload,
//! * structs and tuples as their fields in order, with no framing.
//!
//! # Slice hooks
//!
//! A `u8` encodes as itself, so the elements of a `[u8]` *are* its bytes on
//! the wire — yet an element-at-a-time walk costs a call, a bounds check
//! and a capacity check per byte, which is what a 64 KiB argument spent its
//! time on. [`Serialize::serialize_slice`] and
//! [`Deserialize::deserialize_vec`] are the one place the generic `[T]` /
//! `Vec<T>` impls hand the *whole* run of elements to `T`: the provided
//! bodies are the element loop, and `u8` alone overrides them with one
//! `extend_from_slice` out and one bounds-checked `to_vec` in. The bytes
//! are identical either way; every other element type has a variable or
//! endian-dependent encoding and keeps the loop. (This is borsh's
//! `u8_slice` trick; stable Rust has no specialization.)
//!
//! The derive macros (`#[derive(Serialize, Deserialize)]`, via the
//! `serde_derive` shim) generate field-in-order impls of these traits, so
//! every type that derived serde in the original codebase keeps the exact
//! same byte encoding.

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::hash::Hash;

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};

/// Errors produced while decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// The input ended before the value was complete.
    UnexpectedEof,
    /// Decoded bytes that are not valid for the target type.
    Invalid(String),
    /// Error raised by a custom `Deserialize` impl.
    Custom(String),
}

impl Error {
    /// Convenience constructor used by generated and custom impls.
    pub fn invalid(what: impl Into<String>) -> Error {
        Error::Invalid(what.into())
    }

    /// Constructor mirroring `serde::de::Error::custom`.
    pub fn custom(msg: impl fmt::Display) -> Error {
        Error::Custom(msg.to_string())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::UnexpectedEof => write!(f, "unexpected end of input"),
            Error::Invalid(what) => write!(f, "invalid encoding: {what}"),
            Error::Custom(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for Error {}

/// A type that can encode itself into the workspace wire format.
pub trait Serialize {
    /// Appends this value's encoding to `out`.
    fn serialize(&self, out: &mut Vec<u8>);

    /// Appends the encodings of `items` back to back (no length prefix):
    /// what `[Self]` calls for its elements. See the module's *Slice hooks*.
    #[doc(hidden)]
    fn serialize_slice(items: &[Self], out: &mut Vec<u8>)
    where
        Self: Sized,
    {
        for item in items {
            item.serialize(out);
        }
    }
}

/// A type that can decode itself from the workspace wire format.
///
/// `input` is advanced past the consumed bytes, so values decode in
/// sequence the same way they encode.
pub trait Deserialize<'de>: Sized {
    /// Decodes one value from the front of `input`.
    ///
    /// # Errors
    ///
    /// [`Error::UnexpectedEof`] on truncation, [`Error::Invalid`] on
    /// malformed data.
    fn deserialize(input: &mut &'de [u8]) -> Result<Self, Error>;

    /// Decodes `len` values back to back (the length prefix already read):
    /// what `Vec<Self>` calls for its elements. See the module's *Slice
    /// hooks*.
    #[doc(hidden)]
    fn deserialize_vec(input: &mut &'de [u8], len: usize) -> Result<Vec<Self>, Error> {
        // Guard against hostile lengths: never reserve more than the input
        // could possibly hold (each element needs at least one byte, except
        // zero-sized encodings which push nothing and are capped too).
        let mut items = Vec::with_capacity(len.min(input.len()).min(4096));
        for _ in 0..len {
            items.push(Self::deserialize(input)?);
        }
        Ok(items)
    }
}

/// Module mirroring `serde::ser` for imports like `serde::ser::Error`.
pub mod ser {
    pub use crate::{Error, Serialize};
}

/// Module mirroring `serde::de`, including the `DeserializeOwned` bound
/// used throughout the workspace.
pub mod de {
    pub use crate::{Deserialize, Error};

    /// A value deserializable without borrowing from the input.
    pub trait DeserializeOwned: for<'de> crate::Deserialize<'de> {}

    impl<T> DeserializeOwned for T where T: for<'de> crate::Deserialize<'de> {}
}

/// Reads `N` bytes off the front of `input`.
fn take<const N: usize>(input: &mut &[u8]) -> Result<[u8; N], Error> {
    if input.len() < N {
        return Err(Error::UnexpectedEof);
    }
    let (head, rest) = input.split_at(N);
    *input = rest;
    Ok(head.try_into().expect("split_at guarantees length"))
}

fn take_slice<'de>(input: &mut &'de [u8], n: usize) -> Result<&'de [u8], Error> {
    if input.len() < n {
        return Err(Error::UnexpectedEof);
    }
    let (head, rest) = input.split_at(n);
    *input = rest;
    Ok(head)
}

/// Writes a `u32` little-endian length prefix.
fn write_len(out: &mut Vec<u8>, len: usize) {
    let len32 = u32::try_from(len).expect("collection length exceeds u32");
    out.extend_from_slice(&len32.to_le_bytes());
}

fn read_len(input: &mut &[u8]) -> Result<usize, Error> {
    Ok(u32::from_le_bytes(take::<4>(input)?) as usize)
}

macro_rules! impl_fixed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
        }
        impl<'de> Deserialize<'de> for $t {
            fn deserialize(input: &mut &'de [u8]) -> Result<Self, Error> {
                Ok(<$t>::from_le_bytes(take(input)?))
            }
        }
    )*};
}
impl_fixed!(u16, u32, u64, u128, i8, i16, i32, i64, i128, f32, f64);

impl Serialize for u8 {
    fn serialize(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }

    fn serialize_slice(items: &[u8], out: &mut Vec<u8>) {
        out.extend_from_slice(items);
    }
}

impl<'de> Deserialize<'de> for u8 {
    fn deserialize(input: &mut &'de [u8]) -> Result<Self, Error> {
        Ok(take::<1>(input)?[0])
    }

    fn deserialize_vec(input: &mut &'de [u8], len: usize) -> Result<Vec<u8>, Error> {
        // The bounds check comes first: a lying length is `UnexpectedEof`
        // before anything is allocated.
        Ok(take_slice(input, len)?.to_vec())
    }
}

impl Serialize for usize {
    fn serialize(&self, out: &mut Vec<u8>) {
        (*self as u64).serialize(out);
    }
}

impl<'de> Deserialize<'de> for usize {
    fn deserialize(input: &mut &'de [u8]) -> Result<Self, Error> {
        let v = u64::deserialize(input)?;
        usize::try_from(v).map_err(|_| Error::invalid("usize out of range"))
    }
}

impl Serialize for isize {
    fn serialize(&self, out: &mut Vec<u8>) {
        (*self as i64).serialize(out);
    }
}

impl<'de> Deserialize<'de> for isize {
    fn deserialize(input: &mut &'de [u8]) -> Result<Self, Error> {
        let v = i64::deserialize(input)?;
        isize::try_from(v).map_err(|_| Error::invalid("isize out of range"))
    }
}

impl Serialize for bool {
    fn serialize(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
}

impl<'de> Deserialize<'de> for bool {
    fn deserialize(input: &mut &'de [u8]) -> Result<Self, Error> {
        match take::<1>(input)?[0] {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(Error::invalid(format!("bool byte {other}"))),
        }
    }
}

impl Serialize for char {
    fn serialize(&self, out: &mut Vec<u8>) {
        (*self as u32).serialize(out);
    }
}

impl<'de> Deserialize<'de> for char {
    fn deserialize(input: &mut &'de [u8]) -> Result<Self, Error> {
        let v = u32::deserialize(input)?;
        char::from_u32(v).ok_or_else(|| Error::invalid(format!("char scalar {v}")))
    }
}

impl Serialize for str {
    fn serialize(&self, out: &mut Vec<u8>) {
        write_len(out, self.len());
        out.extend_from_slice(self.as_bytes());
    }
}

impl Serialize for String {
    fn serialize(&self, out: &mut Vec<u8>) {
        self.as_str().serialize(out);
    }
}

impl<'de> Deserialize<'de> for String {
    fn deserialize(input: &mut &'de [u8]) -> Result<Self, Error> {
        Ok(<&str>::deserialize(input)?.to_owned())
    }
}

impl<'de> Deserialize<'de> for &'de str {
    fn deserialize(input: &mut &'de [u8]) -> Result<Self, Error> {
        let len = read_len(input)?;
        let bytes = take_slice(input, len)?;
        std::str::from_utf8(bytes).map_err(|_| Error::invalid("non-UTF-8 string"))
    }
}

impl Serialize for () {
    fn serialize(&self, _out: &mut Vec<u8>) {}
}

impl<'de> Deserialize<'de> for () {
    fn deserialize(_input: &mut &'de [u8]) -> Result<Self, Error> {
        Ok(())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize(&self, out: &mut Vec<u8>) {
        (**self).serialize(out);
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn serialize(&self, out: &mut Vec<u8>) {
        (**self).serialize(out);
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Box<T> {
    fn deserialize(input: &mut &'de [u8]) -> Result<Self, Error> {
        Ok(Box::new(T::deserialize(input)?))
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.serialize(out);
            }
        }
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Option<T> {
    fn deserialize(input: &mut &'de [u8]) -> Result<Self, Error> {
        match take::<1>(input)?[0] {
            0 => Ok(None),
            1 => Ok(Some(T::deserialize(input)?)),
            other => Err(Error::invalid(format!("option tag {other}"))),
        }
    }
}

impl<T: Serialize, E: Serialize> Serialize for Result<T, E> {
    fn serialize(&self, out: &mut Vec<u8>) {
        match self {
            Ok(v) => {
                0u32.serialize(out);
                v.serialize(out);
            }
            Err(e) => {
                1u32.serialize(out);
                e.serialize(out);
            }
        }
    }
}

impl<'de, T: Deserialize<'de>, E: Deserialize<'de>> Deserialize<'de> for Result<T, E> {
    fn deserialize(input: &mut &'de [u8]) -> Result<Self, Error> {
        match u32::deserialize(input)? {
            0 => Ok(Ok(T::deserialize(input)?)),
            1 => Ok(Err(E::deserialize(input)?)),
            other => Err(Error::invalid(format!("Result variant {other}"))),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize(&self, out: &mut Vec<u8>) {
        write_len(out, self.len());
        T::serialize_slice(self, out);
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize(&self, out: &mut Vec<u8>) {
        self.as_slice().serialize(out);
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Vec<T> {
    fn deserialize(input: &mut &'de [u8]) -> Result<Self, Error> {
        let len = read_len(input)?;
        T::deserialize_vec(input, len)
    }
}

impl<K: Serialize, V: Serialize> Serialize for BTreeMap<K, V> {
    fn serialize(&self, out: &mut Vec<u8>) {
        write_len(out, self.len());
        for (k, v) in self {
            k.serialize(out);
            v.serialize(out);
        }
    }
}

impl<'de, K: Deserialize<'de> + Ord, V: Deserialize<'de>> Deserialize<'de> for BTreeMap<K, V> {
    fn deserialize(input: &mut &'de [u8]) -> Result<Self, Error> {
        let len = read_len(input)?;
        let mut map = BTreeMap::new();
        for _ in 0..len {
            let k = K::deserialize(input)?;
            let v = V::deserialize(input)?;
            map.insert(k, v);
        }
        Ok(map)
    }
}

impl<K: Serialize, V: Serialize> Serialize for HashMap<K, V> {
    fn serialize(&self, out: &mut Vec<u8>) {
        write_len(out, self.len());
        for (k, v) in self {
            k.serialize(out);
            v.serialize(out);
        }
    }
}

impl<'de, K: Deserialize<'de> + Eq + Hash, V: Deserialize<'de>> Deserialize<'de> for HashMap<K, V> {
    fn deserialize(input: &mut &'de [u8]) -> Result<Self, Error> {
        let len = read_len(input)?;
        let mut map = HashMap::new();
        for _ in 0..len {
            let k = K::deserialize(input)?;
            let v = V::deserialize(input)?;
            map.insert(k, v);
        }
        Ok(map)
    }
}

macro_rules! impl_tuple {
    ($(($($name:ident : $idx:tt),+)),+ $(,)?) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn serialize(&self, out: &mut Vec<u8>) {
                $( self.$idx.serialize(out); )+
            }
        }
        impl<'de, $($name: Deserialize<'de>),+> Deserialize<'de> for ($($name,)+) {
            fn deserialize(input: &mut &'de [u8]) -> Result<Self, Error> {
                Ok(($($name::deserialize(input)?,)+))
            }
        }
    )+};
}
impl_tuple!(
    (A: 0),
    (A: 0, B: 1),
    (A: 0, B: 1, C: 2),
    (A: 0, B: 1, C: 2, D: 3),
    (A: 0, B: 1, C: 2, D: 3, E: 4),
    (A: 0, B: 1, C: 2, D: 3, E: 4, F: 5),
    (A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6),
    (A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6, H: 7),
);

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T>(value: &T) -> T
    where
        T: Serialize + for<'de> Deserialize<'de>,
    {
        let mut out = Vec::new();
        value.serialize(&mut out);
        let mut input = out.as_slice();
        let back = T::deserialize(&mut input).expect("decodes");
        assert!(input.is_empty(), "decoder left {} bytes", input.len());
        back
    }

    #[test]
    fn primitives_roundtrip() {
        assert_eq!(roundtrip(&0x1234_5678u32), 0x1234_5678);
        assert_eq!(roundtrip(&-42i64), -42);
        assert_eq!(roundtrip(&3.5f64), 3.5);
        assert!(roundtrip(&true));
        assert_eq!(roundtrip(&'é'), 'é');
        assert_eq!(roundtrip(&"héllo".to_string()), "héllo");
    }

    #[test]
    fn little_endian_fixed_width() {
        let mut out = Vec::new();
        0xAABBCCDDu32.serialize(&mut out);
        assert_eq!(out, vec![0xDD, 0xCC, 0xBB, 0xAA]);
    }

    #[test]
    fn string_is_length_prefixed() {
        let mut out = Vec::new();
        "hi".serialize(&mut out);
        assert_eq!(out, vec![2, 0, 0, 0, b'h', b'i']);
    }

    #[test]
    fn option_uses_tag_byte() {
        let mut out = Vec::new();
        Option::<u8>::None.serialize(&mut out);
        Some(7u8).serialize(&mut out);
        assert_eq!(out, vec![0, 1, 7]);
    }

    #[test]
    fn result_uses_u32_variant_index() {
        let mut out = Vec::new();
        Result::<u8, u8>::Ok(9).serialize(&mut out);
        assert_eq!(out, vec![0, 0, 0, 0, 9]);
        out.clear();
        Result::<u8, u8>::Err(9).serialize(&mut out);
        assert_eq!(out, vec![1, 0, 0, 0, 9]);
    }

    #[test]
    fn containers_roundtrip() {
        assert_eq!(roundtrip(&vec![1u16, 2, 3]), vec![1, 2, 3]);
        assert_eq!(
            roundtrip(&(1u8, "x".to_string(), -2i32)),
            (1, "x".to_string(), -2)
        );
        let map: BTreeMap<String, u64> = [("a".to_string(), 1u64)].into();
        assert_eq!(roundtrip(&map), map);
    }

    #[test]
    fn truncated_input_is_eof() {
        let mut out = Vec::new();
        "hello".serialize(&mut out);
        let mut short = &out[..3];
        assert_eq!(String::deserialize(&mut short), Err(Error::UnexpectedEof));
    }

    /// Records the largest single allocation this thread has requested, so
    /// "does not over-allocate" is an assertion and not a hope (a 4 GiB
    /// `with_capacity` succeeds silently on an overcommitting kernel).
    struct LargestRequest;

    thread_local! {
        static LARGEST: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }

    // SAFETY: every call is forwarded unchanged to `System`; the only
    // addition is a thread-local store that itself never allocates.
    unsafe impl std::alloc::GlobalAlloc for LargestRequest {
        unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
            let _ = LARGEST.try_with(|l| l.set(l.get().max(layout.size())));
            std::alloc::System.alloc(layout)
        }
        unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
            std::alloc::System.dealloc(ptr, layout)
        }
        unsafe fn realloc(&self, ptr: *mut u8, layout: std::alloc::Layout, new: usize) -> *mut u8 {
            let _ = LARGEST.try_with(|l| l.set(l.get().max(new)));
            std::alloc::System.realloc(ptr, layout, new)
        }
    }

    #[global_allocator]
    static ALLOC: LargestRequest = LargestRequest;

    /// Runs `f` and returns the largest allocation it requested.
    fn largest_allocation_in(f: impl FnOnce()) -> usize {
        LARGEST.with(|l| l.set(0));
        f();
        LARGEST.with(|l| l.get())
    }

    #[test]
    fn hostile_length_does_not_overallocate() {
        // Length claims 2^32-1 elements but supplies none: the default
        // `deserialize_vec` caps its reservation by the input left.
        let bytes = u32::MAX.to_le_bytes();
        let largest = largest_allocation_in(|| {
            let mut input = &bytes[..];
            assert_eq!(
                Vec::<u64>::deserialize(&mut input),
                Err(Error::UnexpectedEof)
            );
        });
        assert!(largest <= 4096 * 8, "reserved {largest} bytes");
    }

    /// The encoding `[u8]` had before the slice hook: one element at a time.
    fn per_byte_encoding(bytes: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
        for b in bytes {
            out.push(*b);
        }
        out
    }

    #[test]
    fn byte_vectors_encode_as_the_element_loop_did() {
        for len in [0usize, 1, 4095, 4096, 4097, 65_536] {
            let bytes: Vec<u8> = (0..len).map(|i| (i * 31 + 7) as u8).collect();
            let expected = per_byte_encoding(&bytes);
            let mut from_vec = Vec::new();
            bytes.serialize(&mut from_vec);
            assert_eq!(from_vec, expected, "Vec<u8> of {len}");
            let mut from_slice = Vec::new();
            bytes.as_slice().serialize(&mut from_slice);
            assert_eq!(from_slice, expected, "&[u8] of {len}");
            assert_eq!(roundtrip(&bytes), bytes, "round trip of {len}");
        }
    }

    #[test]
    fn lying_byte_vector_length_is_eof_before_any_allocation() {
        let body = vec![0xABu8; 1000];
        for claimed in [u32::MAX, body.len() as u32 + 1] {
            let mut bytes = claimed.to_le_bytes().to_vec();
            bytes.extend_from_slice(&body);
            let largest = largest_allocation_in(|| {
                let mut input = bytes.as_slice();
                assert_eq!(
                    Vec::<u8>::deserialize(&mut input),
                    Err(Error::UnexpectedEof)
                );
            });
            assert_eq!(largest, 0, "claimed {claimed}: allocated {largest} bytes");
        }
    }

    #[test]
    fn other_element_types_keep_the_element_loop() {
        fn encoded<T: Serialize>(value: &T) -> Vec<u8> {
            let mut out = Vec::new();
            value.serialize(&mut out);
            out
        }
        let words: Vec<u16> = (0..5000).collect();
        assert_eq!(encoded(&words).len(), 4 + 2 * words.len());
        assert_eq!(encoded(&words)[4..8], [0, 0, 1, 0], "little-endian u16s");
        assert_eq!(roundtrip(&words), words);

        let strings: Vec<String> = (0..100).map(|i| "x".repeat(i)).collect();
        let chars: usize = strings.iter().map(String::len).sum();
        assert_eq!(encoded(&strings).len(), 4 + 4 * strings.len() + chars);
        assert_eq!(roundtrip(&strings), strings);

        let pairs: Vec<(u8, u8)> = (0..=255).map(|i| (i, !i)).collect();
        assert_eq!(encoded(&pairs).len(), 4 + 2 * pairs.len());
        assert_eq!(roundtrip(&pairs), pairs);
    }
}
