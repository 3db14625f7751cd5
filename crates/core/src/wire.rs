//! Byte-level serialization for values that cross a process boundary.
//!
//! The in-process communicator moves messages as `Box<dyn Any>` — zero
//! serialization cost, but only possible when every rank shares one
//! address space. The Unix-socket transport runs each rank as a child
//! process, so every message payload, program argument and program
//! result must round-trip through bytes. [`Wire`] is that contract:
//! a deliberately small, dependency-free, little-endian encoding with
//! *strict* decoding — hostile or truncated bytes must yield a typed
//! [`WireError`], never a panic, an unbounded allocation, or an
//! unbounded loop.
//!
//! Design rules (all load-bearing for the hostile-frame guarantees):
//!
//! * every encodable value occupies **at least one byte** (even `()`),
//!   so a sequence of claimed length `n` needs at least `n` bytes of
//!   input — the length-prefix sanity check in [`WireReader::seq_len`]
//!   rejects oversized claims *before* any allocation or iteration;
//! * enum discriminants and `bool` are strict: any byte outside the
//!   declared set is an error, not a silent default;
//! * [`Wire::from_wire`] rejects trailing bytes, so a frame that
//!   decodes is exactly one value.
//!
//! The trait is implemented here for the std building blocks the forest
//! algorithms send (integers, tuples, `Vec`, `Option`, `Result`,
//! `String`, `&'static str`, arrays, `Duration`). A declared struct or
//! enum gets its codec from one [`wire!`](crate::wire!) invocation that
//! lists its fields and variants in wire order — the telemetry snapshot
//! types below, and every frame, error, plan, manifest and solver patch
//! of the layers above. Only a type whose bytes are not its fields
//! writes `encode`/`decode` by hand: the quadrant representations (their
//! level + Morton-index normal form, in `quadrant`) — and `MetricEntry`,
//! whose decode also checks its value count against its kind.
//!
//! Fixed-width numbers move in bulk: a slice or array of them is one
//! reservation (or one bounds check) and one loop, with the same bytes
//! and the same errors as one call per element — the solver's
//! `[f64; 64]` patches, a `comm_exchange` round's whole payload.

use std::time::Duration;

/// Decoding failure: what the bytes claimed vs. what they could back.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The input ended before the value did.
    Truncated {
        /// Bytes the decoder needed next.
        needed: usize,
        /// Bytes actually remaining.
        have: usize,
    },
    /// The bytes were well-formed length-wise but semantically invalid
    /// (bad discriminant, bad UTF-8, out-of-range value, …).
    Invalid(String),
    /// A top-level decode consumed the value but left bytes behind.
    Trailing {
        /// Number of unconsumed bytes.
        extra: usize,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated { needed, have } => {
                write!(
                    f,
                    "truncated input: needed {needed} more bytes, have {have}"
                )
            }
            WireError::Invalid(why) => write!(f, "invalid encoding: {why}"),
            WireError::Trailing { extra } => {
                write!(f, "{extra} trailing byte(s) after a complete value")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// A bounds-checked cursor over immutable input bytes.
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Start reading at the front of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Consume exactly `n` bytes.
    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated {
                needed: n,
                have: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Consume a fixed-size array (the primitive-integer path).
    pub(crate) fn take_array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let s = self.take(N)?;
        let mut a = [0u8; N];
        a.copy_from_slice(s);
        Ok(a)
    }

    /// Read a `u64` sequence-length prefix and validate it against the
    /// remaining input: every element encodes to at least one byte, so
    /// a claimed length exceeding the bytes left is hostile and is
    /// rejected *before* any allocation. Returns the length as `usize`.
    pub fn seq_len(&mut self) -> Result<usize, WireError> {
        let len = u64::decode(self)?;
        if len > self.remaining() as u64 {
            return Err(WireError::Invalid(format!(
                "sequence claims {len} elements but only {} bytes remain",
                self.remaining()
            )));
        }
        Ok(len as usize)
    }
}

/// Flat little-endian byte serialization with strict decoding. See the
/// module docs for the encoding rules.
pub trait Wire: Sized {
    /// Append this value's encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Decode one value from the cursor, consuming exactly its bytes.
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError>;

    /// Encode into a fresh buffer.
    fn to_wire(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode(&mut out);
        out
    }

    /// Append the encodings of `items`, back to back (no length
    /// prefix). Sequences go through this, so a type whose slice already
    /// *is* its encoding (`u8`) overrides it with one bulk copy.
    fn encode_slice(items: &[Self], out: &mut Vec<u8>) {
        for v in items {
            v.encode(out);
        }
    }

    /// Decode `len` values, back to back. `len` must already be bounded
    /// by the input ([`WireReader::seq_len`]): it sizes the allocation.
    fn decode_vec(r: &mut WireReader<'_>, len: usize) -> Result<Vec<Self>, WireError> {
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(Self::decode(r)?);
        }
        Ok(out)
    }

    /// Decode `N` values, back to back, into an array built in place (no
    /// heap allocation). `[T; N]` goes through this, so a fixed-width
    /// type overrides it with one bounds check and one loop.
    fn decode_array<const N: usize>(r: &mut WireReader<'_>) -> Result<[Self; N], WireError> {
        let mut failed = None;
        let items = [(); N].map(|()| {
            if failed.is_some() {
                return None;
            }
            Self::decode(r).map_err(|e| failed = Some(e)).ok()
        });
        match failed {
            Some(e) => Err(e),
            None => Ok(items.map(|item| item.expect("every element decoded"))),
        }
    }

    /// Decode a complete value from `bytes`, rejecting trailing input.
    fn from_wire(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = WireReader::new(bytes);
        let v = Self::decode(&mut r)?;
        if r.remaining() != 0 {
            return Err(WireError::Trailing {
                extra: r.remaining(),
            });
        }
        Ok(v)
    }
}

/// The bytes of `len` values `W` bytes wide, one chunk each. Short input
/// fails as decoding them one by one would: on the first value that
/// does not fit, with what is left of it.
fn take_fixed<'a, const W: usize>(
    r: &mut WireReader<'a>,
    len: usize,
) -> Result<impl Iterator<Item = [u8; W]> + 'a, WireError> {
    let have = r.remaining();
    let bytes = r
        .take(len.saturating_mul(W))
        .map_err(|_| WireError::Truncated {
            needed: W,
            have: have % W,
        })?;
    Ok(bytes
        .chunks_exact(W)
        .map(|c| c.try_into().expect("W bytes")))
}

/// Fixed-width numbers: slices and arrays of them move in bulk — the
/// output grown once or the input bounds-checked once, then one loop of
/// fixed-size copies — never a call per element.
macro_rules! impl_wire_int {
    ($($t:ty),* $(,)?) => {$(
        impl Wire for $t {
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
                Ok(<$t>::from_le_bytes(r.take_array()?))
            }
            fn encode_slice(items: &[Self], out: &mut Vec<u8>) {
                const W: usize = std::mem::size_of::<$t>();
                let start = out.len();
                out.resize(start + std::mem::size_of_val(items), 0);
                for (to, v) in out[start..].chunks_exact_mut(W).zip(items) {
                    to.copy_from_slice(&v.to_le_bytes());
                }
            }
            fn decode_vec(r: &mut WireReader<'_>, len: usize) -> Result<Vec<Self>, WireError> {
                const W: usize = std::mem::size_of::<$t>();
                Ok(take_fixed::<W>(r, len)?.map(<$t>::from_le_bytes).collect())
            }
            fn decode_array<const N: usize>(
                r: &mut WireReader<'_>,
            ) -> Result<[Self; N], WireError> {
                const W: usize = std::mem::size_of::<$t>();
                let mut values = take_fixed::<W>(r, N)?.map(<$t>::from_le_bytes);
                Ok(std::array::from_fn(|_| values.next().expect("N values")))
            }
        }
    )*};
}

impl_wire_int!(u16, u32, u64, u128, i8, i16, i32, i64, i128, f32, f64);

/// A byte slice is its own encoding: byte buffers (message payloads,
/// program results, strings) move with one bulk copy each way.
impl Wire for u8 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(r.take(1)?[0])
    }
    fn encode_slice(items: &[Self], out: &mut Vec<u8>) {
        out.extend_from_slice(items);
    }
    fn decode_vec(r: &mut WireReader<'_>, len: usize) -> Result<Vec<Self>, WireError> {
        Ok(r.take(len)?.to_vec())
    }
}

/// `usize` travels as `u64` so 32- and 64-bit peers agree on layout.
impl Wire for usize {
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as u64).encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        usize::try_from(u64::decode(r)?)
            .map_err(|_| WireError::Invalid("usize out of range for this platform".into()))
    }
}

/// `isize` travels as `i64`.
impl Wire for isize {
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as i64).encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        isize::try_from(i64::decode(r)?)
            .map_err(|_| WireError::Invalid("isize out of range for this platform".into()))
    }
}

impl Wire for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match u8::decode(r)? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(WireError::Invalid(format!("bool byte {b:#x}"))),
        }
    }
}

/// `()` encodes as one zero byte, *not* zero bytes: the "every value is
/// at least one byte" rule is what makes sequence-length prefixes
/// checkable against the input size (a `Vec<()>` of hostile length
/// would otherwise decode by looping without consuming anything).
impl Wire for () {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(0);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match u8::decode(r)? {
            0 => Ok(()),
            b => Err(WireError::Invalid(format!("unit byte {b:#x}"))),
        }
    }
}

impl Wire for String {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u64).encode(out);
        u8::encode_slice(self.as_bytes(), out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let len = r.seq_len()?;
        String::from_utf8(u8::decode_vec(r, len)?)
            .map_err(|e| WireError::Invalid(format!("string is not UTF-8: {e}")))
    }
}

/// A name held as `&'static str` (a metric name, a type name, which
/// count disagreed) travels as a `String`. Decoding interns it — leaked
/// once per distinct string, which the closed set of names in a program
/// bounds.
impl Wire for &'static str {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u64).encode(out);
        u8::encode_slice(self.as_bytes(), out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(quadforest_telemetry::intern_name(&String::decode(r)?))
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u64).encode(out);
        T::encode_slice(self, out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let len = r.seq_len()?;
        T::decode_vec(r, len)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match u8::decode(r)? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            b => Err(WireError::Invalid(format!("Option discriminant {b:#x}"))),
        }
    }
}

impl<T: Wire, E: Wire> Wire for Result<T, E> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Ok(v) => {
                out.push(0);
                v.encode(out);
            }
            Err(e) => {
                out.push(1);
                e.encode(out);
            }
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match u8::decode(r)? {
            0 => Ok(Ok(T::decode(r)?)),
            1 => Ok(Err(E::decode(r)?)),
            b => Err(WireError::Invalid(format!("Result discriminant {b:#x}"))),
        }
    }
}

impl<T: Wire, const N: usize> Wire for [T; N] {
    fn encode(&self, out: &mut Vec<u8>) {
        T::encode_slice(self, out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        // every element is at least one byte, so a short input is one
        // truncation, reported before any element is decoded
        if r.remaining() < N {
            return Err(WireError::Truncated {
                needed: N,
                have: r.remaining(),
            });
        }
        T::decode_array(r)
    }
}

macro_rules! impl_wire_tuple {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Wire),+> Wire for ($($name,)+) {
            fn encode(&self, out: &mut Vec<u8>) {
                $(self.$idx.encode(out);)+
            }
            fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
                Ok(($($name::decode(r)?,)+))
            }
        }
    };
}

impl_wire_tuple!(A: 0);
impl_wire_tuple!(A: 0, B: 1);
impl_wire_tuple!(A: 0, B: 1, C: 2);
impl_wire_tuple!(A: 0, B: 1, C: 2, D: 3);
impl_wire_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4);
impl_wire_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5);

impl Wire for Duration {
    fn encode(&self, out: &mut Vec<u8>) {
        self.as_secs().encode(out);
        self.subsec_nanos().encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let secs = u64::decode(r)?;
        let nanos = u32::decode(r)?;
        if nanos >= 1_000_000_000 {
            return Err(WireError::Invalid(format!("Duration nanos {nanos}")));
        }
        Ok(Duration::new(secs, nanos))
    }
}

/// Implement [`Wire`] for a type declared elsewhere, from the names of
/// its fields — and for an enum, its variants with their one-byte
/// discriminants — listed in wire order:
///
/// ```text
/// wire!(struct ShardMeta { leaf_count, byte_len, crc });
/// wire!(enum IoError {
///     0 => Truncated { needed, remaining },
///     9 => Invariant(cause),
///     12 => MissingPayload,
/// });
/// ```
///
/// Fields encode back to back, behind the discriminant for a variant
/// (a literal or a `u8` constant). Decoding builds the struct or variant
/// literal with one `Wire::decode` per field, so the compiler infers
/// every field's type and rejects a missing or an extra name; encoding
/// matches every variant, so a missing one does not compile either. Any
/// other discriminant is `WireError::Invalid("<Type> discriminant d")`.
#[macro_export]
macro_rules! wire {
    (struct $name:ident { $($field:ident),+ $(,)? }) => {
        impl $crate::wire::Wire for $name {
            fn encode(&self, out: &mut Vec<u8>) {
                let $name { $($field),+ } = self;
                $($crate::wire::Wire::encode($field, out);)+
            }
            fn decode(
                r: &mut $crate::wire::WireReader<'_>,
            ) -> Result<Self, $crate::wire::WireError> {
                Ok($name {
                    $($field: $crate::wire::Wire::decode(r)?),+
                })
            }
        }
    };
    (enum $name:ident {
        $($d:tt => $variant:ident $({ $($field:ident),* $(,)? })? $(($($elem:ident),+))?),+
        $(,)?
    }) => {
        impl $crate::wire::Wire for $name {
            fn encode(&self, out: &mut Vec<u8>) {
                match self {
                    $($name::$variant $({ $($field),* })? $(($($elem),+))? => {
                        out.push($d);
                        $($($crate::wire::Wire::encode($field, out);)*)?
                        $($($crate::wire::Wire::encode($elem, out);)+)?
                    })+
                }
            }
            fn decode(
                r: &mut $crate::wire::WireReader<'_>,
            ) -> Result<Self, $crate::wire::WireError> {
                Ok(match <u8 as $crate::wire::Wire>::decode(r)? {
                    $($d => $name::$variant
                        $({ $($field: $crate::wire::Wire::decode(r)?),* })?
                        $(($($crate::wire!(@field r $elem)),+))?,)+
                    d => {
                        return Err($crate::wire::WireError::Invalid(format!(
                            "{} discriminant {d}",
                            stringify!($name)
                        )))
                    }
                })
            }
        }
    };
    // one positional field: `$elem` only names it
    (@field $r:ident $elem:ident) => {
        $crate::wire::Wire::decode($r)?
    };
}

// The telemetry snapshot types: `Comm::aggregate_metrics` allgathers one
// `MetricsSnapshot` per rank, which must survive the socket transport.
// The codecs live here (not in quadforest-telemetry) because `Wire` is
// this crate's trait and core already depends on telemetry.

use quadforest_telemetry::{MetricEntry, MetricKind, MetricsSnapshot};

wire!(enum MetricKind { 0 => Counter, 1 => Gauge, 2 => Histogram });
wire!(struct MetricsSnapshot { entries });

/// The bytes of `wire!(struct MetricEntry { name, kind, values })`, but
/// decoding also checks that `values` holds the kind's slot count: a
/// peer's malformed entry is an error here, not a panic later in the
/// readers of its values.
impl Wire for MetricEntry {
    fn encode(&self, out: &mut Vec<u8>) {
        self.name.encode(out);
        self.kind.encode(out);
        self.values.encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let (name, kind) = (<&'static str>::decode(r)?, MetricKind::decode(r)?);
        let values = Vec::<u64>::decode(r)?;
        if values.len() != kind.slots() {
            return Err(WireError::Invalid(format!(
                "{kind} '{name}' has {} values, not {}",
                values.len(),
                kind.slots()
            )));
        }
        Ok(MetricEntry { name, kind, values })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = v.to_wire();
        assert!(!bytes.is_empty(), "every value is at least one byte");
        assert_eq!(T::from_wire(&bytes).unwrap(), v);
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(0u8);
        roundtrip(u64::MAX);
        roundtrip(-5i64);
        roundtrip(123456789usize);
        roundtrip(3.25f64);
        roundtrip(true);
        roundtrip(());
        roundtrip(u128::MAX - 7);
    }

    #[test]
    fn containers_roundtrip() {
        roundtrip("hello wörld".to_string());
        roundtrip(vec![1u32, 2, 3]);
        roundtrip(Vec::<u64>::new());
        roundtrip(Some(vec![(1u32, "x".to_string())]));
        roundtrip(Option::<u8>::None);
        roundtrip(Result::<u32, String>::Ok(7));
        roundtrip(Result::<u32, String>::Err("boom".into()));
        roundtrip([1i32, -2, 3]);
        roundtrip((1u8, 2u16, 3u32, 4u64, "five".to_string()));
        roundtrip(Duration::from_nanos(1_234_567_891));
        roundtrip(vec![(), (), ()]);
    }

    #[test]
    fn truncated_input_is_typed() {
        let bytes = 0xDEAD_BEEFu64.to_wire();
        for cut in 0..bytes.len() {
            match u64::from_wire(&bytes[..cut]) {
                Err(WireError::Truncated { .. }) => {}
                other => panic!("cut at {cut}: {other:?}"),
            }
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = 5u32.to_wire();
        bytes.push(0);
        assert!(matches!(
            u32::from_wire(&bytes),
            Err(WireError::Trailing { extra: 1 })
        ));
    }

    #[test]
    fn hostile_sequence_length_is_rejected_before_allocation() {
        // a Vec<u64> claiming u64::MAX elements with 3 bytes of payload
        let mut bytes = u64::MAX.to_wire();
        bytes.extend_from_slice(&[1, 2, 3]);
        match Vec::<u64>::from_wire(&bytes) {
            Err(WireError::Invalid(why)) => assert!(why.contains("claims")),
            other => panic!("{other:?}"),
        }
        // same for Vec<()> — the unit's one-byte encoding keeps the
        // length check sound even for "zero-size" elements
        match Vec::<()>::from_wire(&bytes) {
            Err(WireError::Invalid(_)) => {}
            other => panic!("{other:?}"),
        }
    }

    /// The bulk byte path must write exactly what the element loop
    /// wrote: expected bytes are pinned literally, not round-tripped.
    #[test]
    fn sequence_encodings_are_pinned_byte_for_byte() {
        assert_eq!(
            vec![0xAAu8, 0x00, 0xFF].to_wire(),
            [3, 0, 0, 0, 0, 0, 0, 0, 0xAA, 0x00, 0xFF]
        );
        assert_eq!(Vec::<u8>::new().to_wire(), [0; 8]);
        assert_eq!(
            "hé".to_string().to_wire(),
            [3, 0, 0, 0, 0, 0, 0, 0, b'h', 0xC3, 0xA9]
        );
        assert_eq!(
            vec![vec![1u8, 2], vec![], vec![3]].to_wire(),
            [
                3, 0, 0, 0, 0, 0, 0, 0, // outer length
                2, 0, 0, 0, 0, 0, 0, 0, 1, 2, // [1, 2]
                0, 0, 0, 0, 0, 0, 0, 0, // []
                1, 0, 0, 0, 0, 0, 0, 0, 3, // [3]
            ]
        );
        assert_eq!(
            vec![1u64, 0x0102_0304_0506_0708].to_wire(),
            [
                2, 0, 0, 0, 0, 0, 0, 0, // length
                1, 0, 0, 0, 0, 0, 0, 0, // 1, little-endian
                8, 7, 6, 5, 4, 3, 2, 1,
            ]
        );
        assert_eq!([7u8, 8, 9].to_wire(), [7, 8, 9]);
        assert_eq!([0x0102u16, 3].to_wire(), [2, 1, 3, 0]);
    }

    #[test]
    fn bulk_bytes_reject_hostile_lengths_and_every_truncation() {
        // u64::MAX bytes claimed, three present: rejected by `seq_len`
        // before the bulk path sizes anything
        let mut hostile = u64::MAX.to_wire();
        hostile.extend_from_slice(&[1, 2, 3]);
        match Vec::<u8>::from_wire(&hostile) {
            Err(WireError::Invalid(why)) => assert!(why.contains("claims"), "{why}"),
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            String::from_wire(&hostile),
            Err(WireError::Invalid(_))
        ));
        let data: Vec<u8> = (0..200).collect();
        let bytes = data.to_wire();
        assert_eq!(Vec::<u8>::from_wire(&bytes).unwrap(), data);
        for cut in 0..bytes.len() {
            match Vec::<u8>::from_wire(&bytes[..cut]) {
                // inside the length prefix the integer is short; past
                // it the prefix claims more than what is left
                Err(WireError::Truncated { .. }) if cut < 8 => {}
                Err(WireError::Invalid(_)) if cut >= 8 => {}
                other => panic!("cut at {cut}: {other:?}"),
            }
        }
        // a fixed-size array has no prefix to check: the bulk take is
        // what reports the shortfall
        assert_eq!(
            <[u8; 4]>::from_wire(&[1, 2, 3]),
            Err(WireError::Truncated { needed: 4, have: 3 })
        );
    }

    /// `Vec<T>` decoded the element-wise way: the prefix, then one
    /// `decode` per element.
    fn vec_one_by_one<T: Wire>(bytes: &[u8]) -> Result<Vec<T>, WireError> {
        let mut r = WireReader::new(bytes);
        let len = r.seq_len()?;
        let values = (0..len)
            .map(|_| T::decode(&mut r))
            .collect::<Result<_, _>>()?;
        match r.remaining() {
            0 => Ok(values),
            extra => Err(WireError::Trailing { extra }),
        }
    }

    /// `[T; N]` decoded the element-wise way: the short-input check,
    /// then one `decode` per element.
    fn array_one_by_one<T: Wire, const N: usize>(bytes: &[u8]) -> Result<Vec<T>, WireError> {
        let mut r = WireReader::new(bytes);
        if r.remaining() < N {
            let have = r.remaining();
            return Err(WireError::Truncated { needed: N, have });
        }
        let values = (0..N)
            .map(|_| T::decode(&mut r))
            .collect::<Result<_, _>>()?;
        match r.remaining() {
            0 => Ok(values),
            extra => Err(WireError::Trailing { extra }),
        }
    }

    /// The bulk codecs of `T` against the element-wise ones on `values`:
    /// the same bytes, and at every truncation point of a `Vec` and of
    /// a `[T; 8]` the same values (compared by `key`) or the same error.
    fn bulk_is_element_wise<T: Wire + Copy, K: PartialEq + std::fmt::Debug>(
        values: &[T],
        key: impl Fn(&T) -> K,
    ) -> Result<(), proptest::test_runner::TestCaseError> {
        let keys = |v: Vec<T>| v.iter().map(&key).collect::<Vec<K>>();
        let mut one_by_one = (values.len() as u64).to_wire();
        for v in values {
            v.encode(&mut one_by_one);
        }
        proptest::prop_assert_eq!(&values.to_vec().to_wire(), &one_by_one);
        for cut in 0..=one_by_one.len() {
            let bytes = &one_by_one[..cut];
            let bulk = Vec::<T>::from_wire(bytes).map(keys);
            proptest::prop_assert_eq!(bulk, vec_one_by_one::<T>(bytes).map(keys), "cut {}", cut);
        }
        let width = 8 * std::mem::size_of::<T>();
        let array: Vec<u8> = one_by_one[8..]
            .iter()
            .copied()
            .cycle()
            .take(width)
            .collect();
        for cut in 0..=array.len() {
            let bytes = &array[..cut];
            let bulk = <[T; 8]>::from_wire(bytes).map(|a| keys(a.to_vec()));
            let oracle = array_one_by_one::<T, 8>(bytes).map(keys);
            proptest::prop_assert_eq!(bulk, oracle, "array cut {}", cut);
        }
        Ok(())
    }

    proptest::proptest! {
        /// Bulk `f64` (any bit pattern: NaN payloads, −0.0, infinities)
        /// and integer codecs are the element-wise ones, byte for byte
        /// and error for error.
        #[test]
        fn bulk_fixed_width_codecs_are_the_element_wise_ones(
            bits in proptest::collection::vec(proptest::prelude::any::<u64>(), 1..24),
            special in 0usize..6,
        ) {
            let mut floats: Vec<f64> = bits.iter().map(|&b| f64::from_bits(b)).collect();
            let specials = [
                -0.0,
                f64::NAN,
                -f64::NAN,
                f64::INFINITY,
                f64::from_bits(0x7FF0_0000_DEAD_BEEF),
                0.0,
            ];
            let at = special % floats.len();
            floats[at] = specials[special];
            bulk_is_element_wise(&floats, |v| v.to_bits())?;
            let ints: Vec<i32> = bits.iter().map(|&b| b as i32).collect();
            bulk_is_element_wise(&ints, |v| *v)?;
            let shorts: Vec<u16> = bits.iter().map(|&b| (b >> 7) as u16).collect();
            bulk_is_element_wise(&shorts, |v| *v)?;
            bulk_is_element_wise(&bits, |v| *v)?;
        }
    }

    #[test]
    fn strict_discriminants() {
        assert!(matches!(bool::from_wire(&[2]), Err(WireError::Invalid(_))));
        assert!(matches!(
            Option::<u8>::from_wire(&[9, 1]),
            Err(WireError::Invalid(_))
        ));
        assert!(matches!(
            Result::<u8, u8>::from_wire(&[7, 1]),
            Err(WireError::Invalid(_))
        ));
        let bad_utf8 = {
            let mut b = 2u64.to_wire();
            b.extend_from_slice(&[0xFF, 0xFE]);
            b
        };
        assert!(matches!(
            String::from_wire(&bad_utf8),
            Err(WireError::Invalid(_))
        ));
    }

    #[test]
    fn telemetry_snapshot_roundtrips() {
        use quadforest_telemetry as telemetry;
        let snap = MetricsSnapshot {
            entries: vec![
                MetricEntry {
                    name: "comm.msgs_sent",
                    kind: MetricKind::Counter,
                    values: vec![42],
                },
                MetricEntry {
                    name: telemetry::intern_name("a.decoded.metric"),
                    kind: MetricKind::Histogram,
                    values: vec![0; MetricKind::Histogram.slots()],
                },
            ],
        };
        let back = MetricsSnapshot::from_wire(&snap.to_wire()).unwrap();
        assert_eq!(back.entries.len(), 2);
        assert_eq!(back.entries[0].name, "comm.msgs_sent");
        assert_eq!(back.entries[0].values, vec![42]);
        assert_eq!(back.entries[1].kind, MetricKind::Histogram);
    }

    #[test]
    fn metric_entries_of_the_wrong_length_fail_typed() {
        for (kind, len) in [
            (MetricKind::Counter, 0),
            (MetricKind::Gauge, 2),
            (MetricKind::Histogram, 3),
            (MetricKind::Histogram, MetricKind::Histogram.slots() + 1),
        ] {
            let entry = MetricEntry {
                name: "bad",
                kind,
                values: vec![1; len],
            };
            let bytes = entry.to_wire();
            let snap = MetricsSnapshot {
                entries: vec![entry],
            };
            assert!(
                matches!(MetricEntry::from_wire(&bytes), Err(WireError::Invalid(_))),
                "{kind} {len}"
            );
            assert!(
                matches!(
                    MetricsSnapshot::from_wire(&snap.to_wire()),
                    Err(WireError::Invalid(_))
                ),
                "{kind} {len}"
            );
        }
    }

    /// One sample of every telemetry variant, pinned as length and
    /// CRC-32 of the concatenated encodings.
    #[test]
    fn telemetry_codecs_are_pinned_byte_for_byte() {
        let mut bytes = Vec::new();
        for kind in [
            MetricKind::Counter,
            MetricKind::Gauge,
            MetricKind::Histogram,
        ] {
            kind.encode(&mut bytes);
        }
        MetricsSnapshot {
            entries: vec![
                MetricEntry {
                    name: "comm.msgs_sent",
                    kind: MetricKind::Counter,
                    values: vec![42],
                },
                MetricEntry {
                    name: "pde.step_ns",
                    kind: MetricKind::Histogram,
                    values: vec![0, 7, 0x0102_0304_0506_0708],
                },
            ],
        }
        .encode(&mut bytes);
        assert_eq!((bytes.len(), crate::crc::crc32(&bytes)), (102, 0xEC70_7343));
    }
}
