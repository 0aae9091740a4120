//! Offline stand-in for `serde`: the two traits exist so that bounds
//! and derives compile, and every type implements them. Nothing is
//! serialized; see the `serde_json` stand-in.

pub trait Serialize {}
impl<T: ?Sized> Serialize for T {}

pub trait Deserialize<'de>: Sized {}
impl<'de, T> Deserialize<'de> for T {}

pub mod de {
    pub trait DeserializeOwned: Sized {}
    impl<T> DeserializeOwned for T {}
}

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};
