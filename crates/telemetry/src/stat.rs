//! One declaration per scalar stat.
//!
//! [`stats_struct!`](crate::stats_struct) turns a field list into a public
//! snapshot struct **and** its `STATS` table: each field's name is the stat's
//! key, the first line of its doc comment is the stat's help text, and the
//! leading `Counter`/`Gauge` is its Prometheus kind. Every surface renders
//! from that table — the JSON stats documents through
//! `exa_wire::json::JsonWriter::stats`, `/metrics` through
//! [`PromText::stats`](crate::PromText::stats) — so a stat cannot reach one
//! surface without reaching the others, and adding one is one declaration
//! plus the line that fills it.

/// Prometheus sample kind of a [`Stat`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Monotone over the process lifetime.
    Counter,
    /// May go up and down.
    Gauge,
}

impl Kind {
    /// The `# TYPE` keyword.
    pub fn as_str(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
        }
    }
}

/// A stat's value as read from its snapshot. Integers stay integers so both
/// renderers print them exactly.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Value {
    Uint(u64),
    Num(f64),
}

impl From<u64> for Value {
    fn from(v: u64) -> Value {
        Value::Uint(v)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Value {
        Value::Uint(v as u64)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::Num(v)
    }
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Value::Uint(v) => write!(f, "{v}"),
            Value::Num(v) => write!(f, "{v}"),
        }
    }
}

/// One scalar stat of the snapshot type `S`.
pub struct Stat<S> {
    /// Key in the JSON object; `exa_<section>_<name>` in `/metrics`.
    pub name: &'static str,
    pub kind: Kind,
    /// The `# HELP` text.
    pub help: &'static str,
    pub read: fn(&S) -> Value,
}

/// The text of a one-line `///` comment as the compiler hands it to a macro
/// (`" text"`), without the leading space. Used by `stats_struct!`.
#[doc(hidden)]
pub const fn doc_text(doc: &'static str) -> &'static str {
    match doc.as_bytes() {
        [b' ', ..] => doc.split_at(1).1,
        _ => doc,
    }
}

/// Declares a snapshot struct and its stat table in one place:
///
/// ```
/// exa_telemetry::stats_struct! {
///     /// What a demo server counts.
///     #[derive(Clone, Debug, Default, PartialEq)]
///     pub struct DemoStats {
///         /// Requests answered 2xx.
///         Counter requests_ok: u64,
///         /// Seconds since start.
///         /// (Further doc lines are rustdoc only.)
///         Gauge uptime_seconds: f64,
///     }
/// }
/// let table = DemoStats::STATS;
/// assert_eq!(table[0].name, "requests_ok");
/// assert_eq!(table[1].help, "Seconds since start.");
/// ```
///
/// Fields after a `;` are plain public fields with no stat (configuration
/// carried beside the numbers).
#[macro_export]
macro_rules! stats_struct {
    (
        $(#[$meta:meta])*
        pub struct $S:ident {
            $(
                #[doc = $help:literal]
                $(#[doc = $more:literal])*
                $kind:ident $name:ident: $ty:ty,
            )*
            $(;
                $($(#[$plain_meta:meta])* pub $plain:ident: $plain_ty:ty,)*
            )?
        }
    ) => {
        $(#[$meta])*
        pub struct $S {
            $(
                #[doc = $help]
                $(#[doc = $more])*
                pub $name: $ty,
            )*
            $($($(#[$plain_meta])* pub $plain: $plain_ty,)*)?
        }

        impl $S {
            /// Every stat of this snapshot, in document order.
            pub const STATS: &'static [$crate::Stat<$S>] = &[$(
                $crate::Stat {
                    name: stringify!($name),
                    kind: $crate::Kind::$kind,
                    help: $crate::doc_text($help),
                    read: |s| $crate::Value::from(s.$name),
                },
            )*];
        }
    };
}
