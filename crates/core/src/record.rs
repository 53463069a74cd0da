//! Flat records: structs of named counters, each declared once.
//!
//! [`flat_record!`] turns one table of fields into
//!
//! * the public struct, each field with its docs;
//! * its [`FlatRecord`] view: every field's name and value in
//!   declaration order, and a setter by name. The snapshot's JSON writer
//!   and reader and its human table run on this view, so a field added
//!   to the table reaches all three;
//! * optionally, a live mirror: one [`Counter`] per field, updated from
//!   any thread with a relaxed atomic add, with `snapshot` (copy into the
//!   struct) and `reset`. A field marked `= snapshot_only` has no counter
//!   in the mirror and snapshots as 0.

use std::sync::atomic::{AtomicU64, Ordering};

/// One atomically updated counter (relaxed ordering: counters are
/// diagnostics, not synchronization).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Raises the counter to `v` if it is below (a high-water mark).
    #[inline]
    pub fn record_max(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// The current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Sets the counter to 0.
    #[inline]
    pub fn clear(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// The live-mirror slot of a `snapshot_only` field: holds nothing and
/// reads 0. It has no way to count.
#[derive(Debug, Default)]
pub(crate) struct NoCounter;

impl NoCounter {
    pub(crate) fn get(&self) -> u64 {
        0
    }

    pub(crate) fn clear(&self) {}
}

/// A record of named unsigned counters declared by [`flat_record!`].
pub(crate) trait FlatRecord: Default {
    /// Every field's name and value, in declaration order.
    fn fields(&self) -> Vec<(&'static str, u64)>;
    /// Sets the field called `name`; a name the record does not declare
    /// is ignored.
    fn set(&mut self, name: &str, v: u64);
}

/// Declares a flat record: `pub struct Name { /// docs
/// field: type, ... }`, optionally followed by `$vis struct Cell;` for
/// its live mirror (every field then a `u64`). See the module docs.
macro_rules! flat_record {
    (@slot) => { $crate::record::Counter };
    (@slot snapshot_only) => { $crate::record::NoCounter };
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $( $(#[$fmeta:meta])* $field:ident: $ty:ty $(= $only:ident)? ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        pub struct $name {
            $( $(#[$fmeta])* pub $field: $ty, )*
        }

        impl $crate::record::FlatRecord for $name {
            #[allow(clippy::unnecessary_cast)]
            fn fields(&self) -> Vec<(&'static str, u64)> {
                vec![$((stringify!($field), self.$field as u64)),*]
            }

            #[allow(clippy::unnecessary_cast)]
            fn set(&mut self, name: &str, v: u64) {
                match name {
                    $(stringify!($field) => self.$field = v as $ty,)*
                    _ => {}
                }
            }
        }
    };
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $( $(#[$fmeta:meta])* $field:ident: $ty:ty $(= $only:ident)? ),* $(,)?
        }
        $(#[$cmeta:meta])*
        $cvis:vis struct $cell:ident;
    ) => {
        flat_record! {
            $(#[$meta])*
            pub struct $name { $( $(#[$fmeta])* $field: $ty, )* }
        }

        $(#[$cmeta])*
        #[derive(Debug, Default)]
        $cvis struct $cell {
            $( $(#[$fmeta])* $cvis $field: flat_record!(@slot $($only)?), )*
        }

        impl $cell {
            /// Copies every counter into the plain struct.
            $cvis fn snapshot(&self) -> $name {
                $name { $($field: self.$field.get(),)* }
            }

            /// Sets every counter to zero.
            $cvis fn reset(&self) {
                $(self.$field.clear();)*
            }
        }
    };
}

pub(crate) use flat_record;
