//! The wire's one field vocabulary, and the binary frames it fills.
//!
//! Every request and response is a list of named fields, written down
//! once per direction ([`Request`] / [`Response`] `encode` and `decode`
//! in [`crate::protocol`]). Either dialect reads and writes them through
//! one `Field` impl per field type, which states the type's JSON shape,
//! its binary shape and its validation, so a malformed value gets the
//! same message in both:
//!
//! - **JSON lines**: the fields are the keys of one object, written in
//!   sorted order (the same fields always give the same line). A request
//!   adds `"op"`, a response `"ok"` and `"kind"`. Each field writes its
//!   own JSON text, and the number rows under `points` and `centers` are
//!   read straight into flat buffers ([`json::parse_with_rows`]), so no
//!   coordinate becomes a [`Value`] on either side.
//! - **Binary** (`bin1` / `bin1c`): a one-byte opcode, then the fields in
//!   the order they are written down, in [`fc_persist::record`]'s
//!   little-endian vocabulary (shared with the WAL). A frame is one
//!   [`Envelope`] — `[u32 len][payload]` for `bin1`,
//!   `[u32 len][u32 crc32][payload]` for `bin1c` — and the payload is the
//!   same under either; the handshake lives in [`crate::session`].
//!
//! An optional field (`?` below) is an absent or `null` key in JSON and a
//! presence byte `0` / `1` before the value in binary; a defaulted one
//! (`=`) is optional, and JSON leaves it out while it holds its default.
//!
//! | field type | JSON | binary |
//! |------------|------|--------|
//! | string | string | `u32` byte length, UTF-8 |
//! | `u64` / `usize` | non-negative integer | `u64` |
//! | `f64` | number | `f64` |
//! | `bool` | `true` / `false` | `u8` 0 / 1 |
//! | point block | `points` (rows) + `weights`? | `dim u32, count u32, count·dim f64`, weights? |
//! | rows | non-empty array of equal-length finite rows | `dim u32, count u32, count·dim f64` |
//! | number list | array of numbers | `count u32, count f64` |
//! | list | array | `count u32`, then each item |
//! | objective, method, solver, health | canonical name | string |
//! | plan | its wire object ([`Plan::to_value`]) | that object's JSON text |
//! | metrics | any JSON value | its JSON text |
//! | stats record | object | its fields in order |
//!
//! Opcodes are positions in `REQUEST_OPS` / `RESPONSE_KINDS`; one
//! outside them — a frame from a peer of another build among them — is
//! answered with a structured error, never decoded as something else.
//!
//! | opcode | JSON | fields, in binary order |
//! |--------|------|-------------------------|
//! | `0x20` | `"op":"hello"` | trace?, proto |
//! | `0x21` | `"op":"ingest"` | trace?, dataset, points + weights?, plan?, client?, seq?, epoch? |
//! | `0x22` | `"op":"compress"` | trace?, dataset, method?, seed? |
//! | `0x23` | `"op":"cluster"` | trace?, dataset, k?, kind?, solver?, seed? |
//! | `0x24` | `"op":"cost"` | trace?, dataset, centers, kind? |
//! | `0x25` | `"op":"stats"` | trace?, dataset? |
//! | `0x26` | `"op":"metrics"` | trace? |
//! | `0x27` | `"op":"drop_dataset"` | trace?, dataset |
//! | `0x28` | `"op":"add_node"` | trace?, addr, capacity? |
//! | `0x29` | `"op":"drain_node"` | trace?, addr |
//! | `0xa0` | `"kind":"hello"` | proto |
//! | `0xa1` | `"kind":"ingested"` | dataset, points, total_points, total_weight, duplicate= |
//! | `0xa2` | `"kind":"coreset"` | dataset, points, weights, method, seed |
//! | `0xa3` | `"kind":"clustered"` | dataset, centers, objective, solver, coreset_cost, coreset_points, seed |
//! | `0xa4` | `"kind":"cost"` | dataset, cost, objective, coreset_points |
//! | `0xa5` | `"kind":"stats"` | datasets, server? |
//! | `0xa6` | `"kind":"metrics"` | metrics |
//! | `0xa7` | `"kind":"dropped"` | dataset |
//! | `0xa8` | `"kind":"fleet_updated"` | epoch, nodes, migrated |
//! | `0xa9` | `"kind":"error"` | message, code? (an unknown code decodes as none) |
//!
//! The stats records: dataset `dataset, dim, plan, shards,
//! ingested_points, ingested_weight, stored_points, summaries_per_shard,
//! queue_depth_per_shard, state_epoch, recovering, nodes=`; node `node,
//! health, last_error?, shards, ingested_points, ingested_weight,
//! stored_points`; server `uptime_secs, ingested_points, ingested_blocks,
//! queries, fleet_epoch=, cache_hits=, cache_misses=`.

use std::collections::BTreeMap;

use fc_clustering::{CostKind, Solver};
use fc_core::json::{self, KeyedRows, Rows, Value};
use fc_core::plan::{kind_from_name, kind_name, Method, Plan};
use fc_core::{FcError, PointBlock};
use fc_persist::record::{put_f64, put_f64s, put_str, put_u32, put_u64, Cursor, Envelope};

use crate::protocol::{NodeHealth, ProtocolError, Request, Response};

/// An opcode table: `names[i]` travels as opcode `base + i`.
struct Opcodes {
    base: u8,
    names: [&'static str; 10],
}

/// Every request `op`.
const REQUEST_OPS: Opcodes = Opcodes {
    base: 0x20,
    names: [
        "hello",
        "ingest",
        "compress",
        "cluster",
        "cost",
        "stats",
        "metrics",
        "drop_dataset",
        "add_node",
        "drain_node",
    ],
};

/// Every response `kind`.
const RESPONSE_KINDS: Opcodes = Opcodes {
    base: 0xa0,
    names: [
        "hello",
        "ingested",
        "coreset",
        "clustered",
        "cost",
        "stats",
        "metrics",
        "dropped",
        "fleet_updated",
        "error",
    ],
};

/// The keys whose number rows a JSON line's parse reads flat.
const ROW_KEYS: [&str; 2] = ["points", "centers"];

/// A JSON object under construction: the JSON text of each field's value
/// under its key.
#[derive(Default)]
pub(crate) struct Object(BTreeMap<&'static str, String>);

impl Object {
    /// The emptied text of `key`'s value, to write it into.
    fn value(&mut self, key: &'static str) -> &mut String {
        let text = self.0.entry(key).or_default();
        text.clear();
        text
    }

    fn write(&self, out: &mut String) {
        out.push('{');
        for (i, (key, text)) in self.0.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::write_string(key, out);
            out.push(':');
            out.push_str(text);
        }
        out.push('}');
    }

    /// The object as one JSON line (no trailing newline).
    pub(crate) fn into_line(self) -> String {
        let len: usize = self.0.iter().map(|(k, v)| k.len() + v.len() + 4).sum();
        let mut out = String::with_capacity(len + 2);
        self.write(&mut out);
        out
    }
}

/// A JSON object being read: the parsed object, and the number rows its
/// line's parse read flat (kept out of the object).
pub(crate) struct JsonObject<'a> {
    value: &'a Value,
    rows: KeyedRows<'static>,
}

impl<'a> JsonObject<'a> {
    /// An object nested in a line, which holds no flat rows.
    fn nested(value: &'a Value) -> Self {
        Self {
            value,
            rows: Vec::new(),
        }
    }

    fn get(&self, key: &str) -> Option<&'a Value> {
        self.value.get(key)
    }

    pub(crate) fn is_object(&self) -> bool {
        self.value.as_object().is_some()
    }

    /// Takes the rows read flat under `key`.
    fn take_rows(&mut self, key: &str) -> Option<Rows> {
        let at = self.rows.iter().position(|(k, _)| *k == key)?;
        Some(self.rows.swap_remove(at).1)
    }
}

/// Parses one JSON line and reads it with `read`: the line is parsed
/// once, with the rows under [`ROW_KEYS`] read flat.
pub(crate) fn read_line<T>(
    line: &str,
    read: impl FnOnce(&mut JsonObject<'_>) -> Result<T, ProtocolError>,
) -> Result<T, ProtocolError> {
    let (value, rows) = json::parse_with_rows(line, &ROW_KEYS)?;
    read(&mut JsonObject {
        value: &value,
        rows,
    })
}

/// One field type's JSON shape, binary shape and validation.
pub(crate) trait Field: Sized {
    /// Appends the value's JSON text.
    fn write_json(&self, out: &mut String);
    /// Reads the JSON value found under `key`.
    fn from_json(v: &Value, key: &str) -> Result<Self, ProtocolError>;
    fn put(&self, out: &mut Vec<u8>);
    /// Reads the binary value of the field named `key`.
    fn get(c: &mut Cursor<'_>, key: &str) -> Result<Self, ProtocolError>;

    /// Writes the field into a JSON object; a field spanning several keys
    /// overrides this and [`Field::read_field`].
    fn write_field(&self, key: &'static str, obj: &mut Object) {
        self.write_json(obj.value(key));
    }

    /// Reads the field out of a JSON object: `None` when `key` is absent
    /// or `null`.
    fn read_field(obj: &mut JsonObject<'_>, key: &str) -> Result<Option<Self>, ProtocolError> {
        read_value(obj, key)
    }
}

/// [`Field::read_field`] of a field that is one JSON value.
fn read_value<T: Field>(obj: &JsonObject<'_>, key: &str) -> Result<Option<T>, ProtocolError> {
    match obj.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(v) => T::from_json(v, key).map(Some),
    }
}

/// Where fields are written: a JSON object or a binary payload.
pub(crate) trait Encoder {
    fn field<T: Field>(&mut self, key: &'static str, value: &T);
    fn optional<T: Field>(&mut self, key: &'static str, value: Option<&T>);

    /// An optional field that is absent while it holds its default.
    fn defaulted<T: Field + Default + PartialEq>(&mut self, key: &'static str, value: &T) {
        self.optional(key, Some(value).filter(|v| **v != T::default()));
    }
}

/// Where fields are read from: a JSON object or a binary payload.
pub(crate) trait Decoder {
    fn field<T: Field>(&mut self, key: &str) -> Result<T, ProtocolError>;
    fn optional<T: Field>(&mut self, key: &str) -> Result<Option<T>, ProtocolError>;

    /// A [`Encoder::defaulted`] field.
    fn defaulted<T: Field + Default>(&mut self, key: &str) -> Result<T, ProtocolError> {
        Ok(self.optional(key)?.unwrap_or_default())
    }

    /// An optional field whose value must also pass `valid`; anything
    /// else there is refused as not being `what`.
    fn checked<T: Field>(
        &mut self,
        key: &str,
        what: &str,
        valid: impl Fn(&T) -> bool,
    ) -> Result<Option<T>, ProtocolError> {
        match self.optional(key) {
            Ok(value) if value.as_ref().is_none_or(valid) => Ok(value),
            _ => Err(must(key, what)),
        }
    }
}

impl Encoder for Object {
    fn field<T: Field>(&mut self, key: &'static str, value: &T) {
        value.write_field(key, self);
    }

    fn optional<T: Field>(&mut self, key: &'static str, value: Option<&T>) {
        if let Some(value) = value {
            value.write_field(key, self);
        }
    }
}

impl Decoder for JsonObject<'_> {
    fn field<T: Field>(&mut self, key: &str) -> Result<T, ProtocolError> {
        T::read_field(self, key)?
            .ok_or_else(|| ProtocolError::new(format!("missing required field `{key}`")))
    }

    fn optional<T: Field>(&mut self, key: &str) -> Result<Option<T>, ProtocolError> {
        T::read_field(self, key)
    }
}

impl Encoder for Vec<u8> {
    fn field<T: Field>(&mut self, _key: &'static str, value: &T) {
        value.put(self);
    }

    fn optional<T: Field>(&mut self, _key: &'static str, value: Option<&T>) {
        self.push(u8::from(value.is_some()));
        if let Some(value) = value {
            value.put(self);
        }
    }
}

impl Decoder for Cursor<'_> {
    fn field<T: Field>(&mut self, key: &str) -> Result<T, ProtocolError> {
        T::get(self, key)
    }

    fn optional<T: Field>(&mut self, key: &str) -> Result<Option<T>, ProtocolError> {
        match need(self.u8().filter(|&b| b <= 1), key)? {
            0 => Ok(None),
            _ => T::get(self, key).map(Some),
        }
    }
}

fn must(key: &str, what: &str) -> ProtocolError {
    ProtocolError::new(format!("`{key}` must be {what}"))
}

/// A binary value read off the cursor: `None` (cut short, or out of
/// range) is a protocol error.
fn need<T>(value: Option<T>, key: &str) -> Result<T, ProtocolError> {
    value.ok_or_else(|| ProtocolError::new(format!("binary frame holds no valid `{key}`")))
}

/// Field types that are one JSON scalar (`what` names it in the error a
/// wrong one gets) and one binary value.
macro_rules! scalar {
    ($($t:ty: $what:literal, $from_json:expr, $put:expr, $get:expr;)*) => {$(
        impl Field for $t {
            fn write_json(&self, out: &mut String) {
                Value::from(self.clone()).write_json(out)
            }

            fn from_json(v: &Value, key: &str) -> Result<Self, ProtocolError> {
                ($from_json)(v).ok_or_else(|| must(key, $what))
            }

            fn put(&self, out: &mut Vec<u8>) {
                ($put)(out, self)
            }

            fn get(c: &mut Cursor<'_>, key: &str) -> Result<Self, ProtocolError> {
                need(($get)(c), key)
            }
        }
    )*};
}

scalar! {
    String: "a string", |v: &Value| v.as_str().map(str::to_owned), put_str, Cursor::str;
    u64: "a non-negative integer", Value::as_u64, |o, x: &u64| put_u64(o, *x), Cursor::u64;
    usize: "a non-negative integer", Value::as_usize, |o, x: &usize| put_u64(o, *x as u64),
        |c: &mut Cursor<'_>| c.u64().and_then(|x| usize::try_from(x).ok());
    f64: "a number", Value::as_f64, |o, x: &f64| put_f64(o, *x), Cursor::f64;
    bool: "a boolean", Value::as_bool, |o: &mut Vec<u8>, x: &bool| o.push(u8::from(*x)),
        |c: &mut Cursor<'_>| c.u8().filter(|&b| b <= 1).map(|b| b == 1);
}

/// Field types that travel by their canonical name, parsed with the same
/// function the library exposes.
macro_rules! by_name {
    ($($t:ty: $name:expr, $parse:expr;)*) => {$(
        impl Field for $t {
            fn write_json(&self, out: &mut String) {
                json::write_string(&($name)(self), out)
            }

            fn from_json(v: &Value, key: &str) -> Result<Self, ProtocolError> {
                let name = String::from_json(v, key)?;
                ($parse)(name.as_str()).map_err(|e| ProtocolError::new(e.to_string()))
            }

            fn put(&self, out: &mut Vec<u8>) {
                put_str(out, &($name)(self));
            }

            fn get(c: &mut Cursor<'_>, key: &str) -> Result<Self, ProtocolError> {
                let name = String::get(c, key)?;
                ($parse)(name.as_str()).map_err(|e| ProtocolError::new(e.to_string()))
            }
        }
    )*};
}

by_name! {
    CostKind: |k: &CostKind| kind_name(*k).to_owned(), kind_from_name;
    Method: Method::to_string, str::parse::<Method>;
    Solver: Solver::to_string, str::parse::<Solver>;
    NodeHealth: |h: &NodeHealth| h.name().to_owned(), |name| NodeHealth::from_name(name)
        .ok_or("`health` must be alive, recovering, degraded, or down");
}

/// Reads an array of equal-length number arrays into a flat row-major
/// buffer, returning it with the row length. `null` is how a non-finite
/// number is written, so it reads back as one (and fails the finiteness
/// check of what the rows become). A line's parse reads rows that are
/// well-formed flat already ([`JsonObject::take_rows`]); what reaches
/// this is malformed, and this names how.
fn flat_from_json(v: &Value, key: &str) -> Result<(Vec<f64>, usize), ProtocolError> {
    let outer = v
        .as_array()
        .ok_or_else(|| must(key, "an array of points"))?;
    let mut data = Vec::new();
    let mut dim = None;
    for (i, row) in outer.iter().enumerate() {
        let coords = row
            .as_array()
            .ok_or_else(|| must(&format!("{key}[{i}]"), "an array of numbers"))?;
        let d = *dim.get_or_insert(coords.len());
        if d == 0 || coords.len() != d {
            return Err(ProtocolError::new(format!(
                "`{key}[{i}]` has {} coordinates, where points need {d} and at least one",
                coords.len()
            )));
        }
        if i == 0 {
            data.reserve(outer.len() * d);
        }
        for c in coords {
            data.push(match c {
                Value::Null => f64::NAN,
                c => c.as_f64().ok_or_else(|| {
                    ProtocolError::new(format!("`{key}[{i}]` holds a non-numeric coordinate"))
                })?,
            });
        }
    }
    Ok((data, dim.unwrap_or(0)))
}

/// Reads a `dim u32, count u32, count·dim f64` run.
fn flat_get(c: &mut Cursor<'_>, key: &str) -> Result<(Vec<f64>, usize), ProtocolError> {
    let dim = need(c.u32(), key)? as usize;
    let count = need(c.u32(), key)? as usize;
    let data = need(count.checked_mul(dim).and_then(|n| c.f64s(n)), key)?;
    Ok((data, dim))
}

/// An ingest block, validated by [`PointBlock::new`] in either dialect.
fn point_block(
    data: Vec<f64>,
    dim: usize,
    weights: Option<Vec<f64>>,
) -> Result<PointBlock, ProtocolError> {
    if data.is_empty() {
        return Err(ProtocolError::new("`points` must be non-empty"));
    }
    PointBlock::new(data, dim, weights).map_err(|e| match e {
        FcError::InvalidParameter(message) => ProtocolError::new(message),
        e => ProtocolError::new(e.to_string()),
    })
}

/// `points` holds the rows, and `weights` the weights when the block has
/// any.
impl Field for PointBlock {
    fn write_json(&self, out: &mut String) {
        json::write_array(self.rows(), out, json::write_numbers);
    }

    fn from_json(v: &Value, key: &str) -> Result<Self, ProtocolError> {
        let (data, dim) = flat_from_json(v, key)?;
        point_block(data, dim, None)
    }

    fn put(&self, out: &mut Vec<u8>) {
        put_u32(out, self.dim() as u32);
        put_u32(out, self.len() as u32);
        put_f64s(out, self.data());
        out.push(u8::from(self.weights().is_some()));
        if let Some(weights) = self.weights() {
            put_u32(out, weights.len() as u32);
            put_f64s(out, weights);
        }
    }

    fn get(c: &mut Cursor<'_>, key: &str) -> Result<Self, ProtocolError> {
        let (data, dim) = flat_get(c, key)?;
        point_block(data, dim, c.optional("weights")?)
    }

    fn write_field(&self, key: &'static str, obj: &mut Object) {
        self.write_json(obj.value(key));
        if let Some(weights) = self.weights() {
            json::write_numbers(weights, obj.value("weights"));
        }
    }

    fn read_field(obj: &mut JsonObject<'_>, key: &str) -> Result<Option<Self>, ProtocolError> {
        let (data, dim) = match obj.take_rows(key) {
            Some(rows) => (rows.data, rows.dim),
            None => match obj.get(key) {
                None => return Ok(None),
                Some(points) => flat_from_json(points, key)?,
            },
        };
        point_block(data, dim, Vec::<f64>::read_field(obj, "weights")?).map(Some)
    }
}

/// Rows: non-empty, equal-length, finite.
impl Field for Vec<Vec<f64>> {
    fn write_json(&self, out: &mut String) {
        json::write_array(self, out, |row, out| json::write_numbers(row, out));
    }

    fn from_json(v: &Value, key: &str) -> Result<Self, ProtocolError> {
        let (data, dim) = flat_from_json(v, key)?;
        rows(data, dim, key)
    }

    fn put(&self, out: &mut Vec<u8>) {
        put_u32(out, self.first().map_or(0, Vec::len) as u32);
        put_u32(out, self.len() as u32);
        for row in self {
            put_f64s(out, row);
        }
    }

    fn get(c: &mut Cursor<'_>, key: &str) -> Result<Self, ProtocolError> {
        let (data, dim) = flat_get(c, key)?;
        rows(data, dim, key)
    }

    fn read_field(obj: &mut JsonObject<'_>, key: &str) -> Result<Option<Self>, ProtocolError> {
        match obj.take_rows(key) {
            Some(flat) => rows(flat.data, flat.dim, key).map(Some),
            None => read_value(obj, key),
        }
    }
}

fn rows(data: Vec<f64>, dim: usize, key: &str) -> Result<Vec<Vec<f64>>, ProtocolError> {
    if data.is_empty() {
        return Err(ProtocolError::new(format!("`{key}` must be non-empty")));
    }
    if let Some(i) = data.iter().position(|x| !x.is_finite()) {
        return Err(ProtocolError::new(format!(
            "`{key}[{}]` holds a non-finite coordinate",
            i / dim
        )));
    }
    Ok(data.chunks_exact(dim).map(<[f64]>::to_vec).collect())
}

/// A number list, read back in one run.
impl Field for Vec<f64> {
    fn write_json(&self, out: &mut String) {
        json::write_numbers(self, out);
    }

    fn from_json(v: &Value, key: &str) -> Result<Self, ProtocolError> {
        v.as_array()
            .and_then(|items| items.iter().map(Value::as_f64).collect())
            .ok_or_else(|| must(key, "an array of numbers"))
    }

    fn put(&self, out: &mut Vec<u8>) {
        put_u32(out, self.len() as u32);
        put_f64s(out, self);
    }

    fn get(c: &mut Cursor<'_>, key: &str) -> Result<Self, ProtocolError> {
        let count = need(c.u32(), key)? as usize;
        need(c.f64s(count), key)
    }
}

/// Field types that travel as list items.
trait Element: Field {}

impl Element for u64 {}
impl Element for usize {}

impl<T: Element> Field for Vec<T> {
    fn write_json(&self, out: &mut String) {
        json::write_array(self, out, T::write_json);
    }

    fn from_json(v: &Value, key: &str) -> Result<Self, ProtocolError> {
        let items = v.as_array().ok_or_else(|| must(key, "an array"))?;
        items.iter().map(|item| T::from_json(item, key)).collect()
    }

    fn put(&self, out: &mut Vec<u8>) {
        put_u32(out, self.len() as u32);
        for item in self {
            item.put(out);
        }
    }

    fn get(c: &mut Cursor<'_>, key: &str) -> Result<Self, ProtocolError> {
        let count = need(c.u32(), key)?;
        (0..count).map(|_| T::get(c, key)).collect()
    }
}

impl Field for Plan {
    fn write_json(&self, out: &mut String) {
        self.to_value().write_json(out);
    }

    fn from_json(v: &Value, key: &str) -> Result<Self, ProtocolError> {
        Plan::from_value(v).map_err(|e| ProtocolError::new(format!("invalid `{key}`: {e}")))
    }

    fn put(&self, out: &mut Vec<u8>) {
        put_str(out, &self.to_json());
    }

    fn get(c: &mut Cursor<'_>, key: &str) -> Result<Self, ProtocolError> {
        Plan::from_json(&String::get(c, key)?)
            .map_err(|e| ProtocolError::new(format!("invalid `{key}`: {e}")))
    }
}

impl Field for Value {
    fn write_json(&self, out: &mut String) {
        Value::write_json(self, out);
    }

    fn from_json(v: &Value, _key: &str) -> Result<Self, ProtocolError> {
        Ok(v.clone())
    }

    fn put(&self, out: &mut Vec<u8>) {
        put_str(out, &self.to_json());
    }

    fn get(c: &mut Cursor<'_>, key: &str) -> Result<Self, ProtocolError> {
        Ok(json::parse(&String::get(c, key)?)?)
    }
}

/// A stats record: its fields, as a JSON object or in order.
pub(crate) trait Record: Sized {
    fn encode(&self, e: &mut impl Encoder);
    fn decode(d: &mut impl Decoder) -> Result<Self, ProtocolError>;
}

impl<T: Record> Element for T {}

impl<T: Record> Field for T {
    fn write_json(&self, out: &mut String) {
        let mut obj = Object::default();
        self.encode(&mut obj);
        obj.write(out);
    }

    fn from_json(v: &Value, _key: &str) -> Result<Self, ProtocolError> {
        T::decode(&mut JsonObject::nested(v))
    }

    fn put(&self, out: &mut Vec<u8>) {
        self.encode(out);
    }

    fn get(c: &mut Cursor<'_>, _key: &str) -> Result<Self, ProtocolError> {
        T::decode(c)
    }
}

impl Opcodes {
    fn frame(&self, checked: bool, name: &str, body: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
        let at = self.names.iter().position(|&n| n == name);
        let envelope = Envelope::wire(checked);
        let mut p = Vec::with_capacity(64);
        let header = envelope.open(&mut p);
        p.push(self.base + at.expect("every op is in its opcode table") as u8);
        body(&mut p);
        envelope.seal(&mut p, header);
        p
    }

    /// Reads the opcode and the fields behind it, refusing trailing bytes.
    fn unframe<'a, T>(
        &self,
        what: &str,
        payload: &'a [u8],
        decode: impl FnOnce(&str, &mut Cursor<'a>) -> Result<T, ProtocolError>,
    ) -> Result<T, ProtocolError> {
        let mut c = Cursor::new(payload);
        let op = need(c.u8(), "opcode")?;
        let name = op
            .checked_sub(self.base)
            .and_then(|at| self.names.get(usize::from(at)))
            .ok_or_else(|| {
                ProtocolError::new(format!("unknown binary {what} opcode 0x{op:02x}"))
            })?;
        let decoded = decode(name, &mut c)?;
        match c.rest().len() {
            0 => Ok(decoded),
            n => Err(ProtocolError::new(format!(
                "binary frame has {n} trailing bytes"
            ))),
        }
    }
}

/// Encodes a request as one complete binary frame (header included),
/// ready to write to the transport. `checked` selects the envelope the
/// connection negotiated — `bin1c` or classic `bin1` — and nothing else.
pub fn request_frame(request: &Request, trace: Option<&str>, checked: bool) -> Vec<u8> {
    REQUEST_OPS.frame(checked, request.op_name(), |p| request.encode(trace, p))
}

/// Encodes a response as one complete binary frame (header included),
/// ready to write to the transport. `checked` selects the envelope (see
/// [`request_frame`]).
pub fn response_frame(response: &Response, checked: bool) -> Vec<u8> {
    RESPONSE_KINDS.frame(checked, response.kind(), |p| response.encode(p))
}

/// Decodes one binary request payload (the frame's header already
/// stripped by the codec), returning the request and its optional trace.
pub fn decode_request(payload: &[u8]) -> Result<(Request, Option<String>), ProtocolError> {
    REQUEST_OPS.unframe("request", payload, Request::decode)
}

/// Decodes one binary response payload (header already stripped).
pub fn decode_response(payload: &[u8]) -> Result<Response, ProtocolError> {
    RESPONSE_KINDS.unframe("response", payload, Response::decode)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{DatasetStats, ErrorCode, IngestIdent, NodeStats, ServerStats};
    use fc_core::methods::JCount;
    use fc_core::plan::PlanBuilder;

    fn strip(frame: Vec<u8>, checked: bool) -> Vec<u8> {
        let len = u32::from_le_bytes(frame[..4].try_into().unwrap()) as usize;
        assert_eq!(frame.len(), 4 + len, "frame length prefix must match");
        if checked {
            let crc = u32::from_le_bytes(frame[4..8].try_into().unwrap());
            let payload = frame[8..].to_vec();
            assert_eq!(fc_persist::crc32(&payload), crc, "frame CRC must match");
            payload
        } else {
            frame[4..].to_vec()
        }
    }

    fn ingest(block: PointBlock) -> Request {
        Request::Ingest {
            dataset: "d".into(),
            block,
            plan: None,
            ident: None,
            epoch: None,
        }
    }

    fn stats(nodes: Vec<NodeStats>, server: Option<ServerStats>) -> Response {
        Response::Stats {
            datasets: vec![DatasetStats {
                dataset: "d".into(),
                dim: 2,
                plan: PlanBuilder::new(4).m_scalar(25).build().unwrap(),
                shards: 4,
                ingested_points: 10,
                ingested_weight: 10.5,
                stored_points: 10,
                summaries_per_shard: vec![2, 1, 3, 1],
                queue_depth_per_shard: vec![0, 4, 0, 1],
                state_epoch: (3, 1000),
                recovering: true,
                nodes,
            }],
            server,
        }
    }

    fn node(node: &str, health: NodeHealth, last_error: Option<&str>) -> NodeStats {
        NodeStats {
            node: node.into(),
            health,
            last_error: last_error.map(str::to_owned),
            shards: 2,
            ingested_points: 6,
            ingested_weight: 6.0,
            stored_points: 6,
        }
    }

    fn requests() -> Vec<(Request, Option<&'static str>)> {
        let weighted = PointBlock::new(vec![0.0, 1.5, -2.25, 3.0], 2, Some(vec![1.0, 2.5]));
        vec![
            (
                Request::Hello {
                    proto: "bin1".into(),
                },
                None,
            ),
            (ingest(weighted.unwrap()), Some("trace-1")),
            (
                Request::Ingest {
                    dataset: "d".into(),
                    block: PointBlock::new(vec![0.5, 1.5], 1, None).unwrap(),
                    plan: Some(
                        PlanBuilder::new(3)
                            .m_scalar(15)
                            .kind(CostKind::KMedian)
                            .method(Method::Lightweight)
                            .compaction_budget(900)
                            .build()
                            .unwrap(),
                    ),
                    ident: Some(IngestIdent {
                        client: "producer-a".into(),
                        seq: 42,
                    }),
                    epoch: Some(3),
                },
                Some("trace-2"),
            ),
            (
                Request::Compress {
                    dataset: "a/b c".into(),
                    method: None,
                    seed: Some(7),
                },
                None,
            ),
            (
                Request::Compress {
                    dataset: "x".into(),
                    method: Some(Method::Welterweight(JCount::LogK)),
                    seed: None,
                },
                Some("tr"),
            ),
            (
                Request::Cluster {
                    dataset: "d".into(),
                    k: Some(4),
                    kind: Some(CostKind::KMedian),
                    solver: Some(Solver::Lloyd),
                    seed: Some(u64::MAX),
                },
                None,
            ),
            (
                Request::Cluster {
                    dataset: "d".into(),
                    k: None,
                    kind: None,
                    solver: None,
                    seed: None,
                },
                Some("t"),
            ),
            (
                Request::Cost {
                    dataset: "d".into(),
                    centers: vec![vec![1.0, 2.0], vec![3.0, 4.0]],
                    kind: Some(CostKind::KMedian),
                },
                Some("t"),
            ),
            (
                Request::Cost {
                    dataset: "d".into(),
                    centers: vec![vec![1.0]],
                    kind: None,
                },
                None,
            ),
            (Request::Stats { dataset: None }, None),
            (
                Request::Stats {
                    dataset: Some("d".into()),
                },
                Some("tr"),
            ),
            (Request::Metrics, Some("x")),
            (
                Request::DropDataset {
                    dataset: "d".into(),
                },
                None,
            ),
            (
                Request::AddNode {
                    addr: "127.0.0.1:4801".into(),
                    capacity: Some(2.5),
                },
                None,
            ),
            (
                Request::AddNode {
                    addr: "127.0.0.1:4801".into(),
                    capacity: None,
                },
                None,
            ),
            (
                Request::DrainNode {
                    addr: "127.0.0.1:4801".into(),
                },
                None,
            ),
        ]
    }

    fn responses() -> Vec<Response> {
        let counters = ServerStats {
            uptime_secs: 86_400,
            ingested_points: 1 << 41,
            ingested_blocks: 1 << 21,
            queries: 42,
            fleet_epoch: 0,
            cache_hits: 12,
            cache_misses: 30,
        };
        let mut responses = vec![
            Response::Hello {
                proto: "bin1".into(),
            },
            Response::Ingested {
                dataset: "d".into(),
                points: 128,
                total_points: 1 << 40,
                total_weight: 1099511627776.5,
                duplicate: false,
            },
            Response::Ingested {
                dataset: "d".into(),
                points: 0,
                total_points: 1 << 40,
                total_weight: 1099511627776.5,
                duplicate: true,
            },
            Response::Coreset {
                dataset: "d".into(),
                points: vec![vec![0.125, -4.0], vec![1.0, 2.0]],
                weights: vec![17.25, 0.5],
                method: Method::FastCoreset,
                seed: 3,
            },
            Response::Clustered {
                dataset: "d".into(),
                centers: vec![vec![1.0], vec![2.0]],
                kind: CostKind::KMeans,
                solver: Solver::Lloyd,
                coreset_cost: 12.5,
                coreset_points: 200,
                seed: 8,
            },
            Response::Cost {
                dataset: "d".into(),
                cost: 0.0625,
                kind: CostKind::KMedian,
                coreset_points: 10,
            },
            stats(Vec::new(), Some(counters)),
            // Coordinator stats carry per-node identity and health.
            stats(
                vec![
                    node("127.0.0.1:4777", NodeHealth::Alive, None),
                    node("127.0.0.1:4778", NodeHealth::Recovering, None),
                    node("127.0.0.1:4779", NodeHealth::Down, Some("connect: refused")),
                ],
                None,
            ),
            // Coordinators report their fleet epoch; plain servers omit it.
            Response::Stats {
                datasets: Vec::new(),
                server: Some(ServerStats {
                    fleet_epoch: 17,
                    cache_hits: 0,
                    ..counters
                }),
            },
            Response::Metrics {
                metrics: json::parse(r#"{"counters":{"fc_requests_total":7},"traces":[]}"#)
                    .unwrap(),
            },
            Response::Dropped {
                dataset: "d".into(),
            },
            Response::FleetUpdated {
                epoch: 4,
                nodes: 3,
                migrated: 2,
            },
            Response::Error {
                message: "no such dataset \"x\"".into(),
                code: None,
            },
        ];
        for code in [
            ErrorCode::Overloaded,
            ErrorCode::UnknownDataset,
            ErrorCode::NoData,
            ErrorCode::Unavailable,
            ErrorCode::DeadlineExceeded,
            ErrorCode::WrongEpoch,
            ErrorCode::Internal,
        ] {
            responses.push(Response::Error {
                message: format!("a {code} failure"),
                code: Some(code),
            });
        }
        responses
    }

    /// Every op, through the JSON line and both binary envelopes.
    #[test]
    fn every_op_round_trips_in_every_dialect() {
        for (request, trace) in requests() {
            let line = request.to_json_with_trace(trace);
            assert!(!line.contains('\n'), "{line}");
            let (decoded, got) = Request::from_json_with_trace(&line).unwrap();
            assert_eq!((&decoded, got.as_deref()), (&request, trace));
            for checked in [false, true] {
                let payload = strip(request_frame(&request, trace, checked), checked);
                let (decoded, got) = decode_request(&payload).unwrap();
                assert_eq!((&decoded, got.as_deref()), (&request, trace));
            }
        }
        for response in responses() {
            let line = response.to_json();
            assert!(!line.contains('\n'), "{line}");
            assert_eq!(Response::from_json(&line).unwrap(), response);
            for checked in [false, true] {
                let payload = strip(response_frame(&response, checked), checked);
                assert_eq!(decode_response(&payload).unwrap(), response);
            }
        }
    }

    #[test]
    fn unknown_error_codes_decode_as_none_in_both_dialects() {
        match Response::from_json(r#"{"kind":"error","message":"m","code":"quota"}"#).unwrap() {
            Response::Error { code, .. } => assert_eq!(code, None),
            other => panic!("unexpected {other:?}"),
        }
        let mut p = vec![RESPONSE_KINDS.base + 9];
        p.field("message", &"m".to_owned());
        p.optional("code", Some(&"quota".to_owned()));
        let decoded = decode_response(&p).unwrap();
        assert_eq!(
            decoded,
            Response::Error {
                message: "m".into(),
                code: None
            }
        );
    }

    #[test]
    fn garbage_payloads_decode_as_errors_not_panics() {
        for payload in [
            &[][..],
            &[0x21],
            &[0x7F, 0],
            &[0x21, 0xFF],
            &[0x21, 0, 0xFF, 0xFF, 0xFF, 0xFF],
            &[0xa1, 1, 0, 0, 0, b'd'],
            &[0xFF, 0, 1, 2, 3],
        ] {
            assert!(decode_request(payload).is_err(), "{payload:?}");
            assert!(decode_response(payload).is_err(), "{payload:?}");
        }
        // A payload from before this opcode range is refused by opcode.
        let err = decode_request(&[0x01, 0, 1, 0, 0, 0, b'd']).unwrap_err();
        assert_eq!(err.message, "unknown binary request opcode 0x01");
    }

    /// The ingest rules hold in binary too: coordinates are finite, and
    /// `client` and `seq` travel together.
    #[test]
    fn binary_ingests_are_validated_like_json_ones() {
        let ingest = |coords: f64, client: Option<&str>, seq: Option<u64>| {
            let mut p = vec![REQUEST_OPS.base + 1];
            p.optional::<String>("trace", None);
            p.field("dataset", &"d".to_owned());
            put_u32(&mut p, 1);
            put_u32(&mut p, 1);
            put_f64(&mut p, coords);
            p.optional::<Vec<f64>>("weights", None);
            p.optional::<Plan>("plan", None);
            p.optional("client", client.map(str::to_owned).as_ref());
            p.optional("seq", seq.as_ref());
            p.optional::<u64>("epoch", None);
            decode_request(&p)
        };
        assert!(ingest(1.0, Some("c"), Some(3)).is_ok());
        let err = ingest(f64::NAN, None, None).unwrap_err();
        assert!(err.message.contains("must be finite"), "{err}");
        for (client, seq) in [(Some("c"), None), (None, Some(3))] {
            let err = ingest(1.0, client, seq).unwrap_err();
            assert!(err.message.contains("sent together"), "{err}");
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut payload = strip(
            request_frame(
                &Request::Cost {
                    dataset: "d".into(),
                    centers: vec![vec![1.0]],
                    kind: None,
                },
                None,
                false,
            ),
            false,
        );
        payload.push(0);
        assert!(decode_request(&payload).is_err());
    }
}
