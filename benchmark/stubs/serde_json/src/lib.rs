//! Offline stand-in for `serde_json`. It cannot serialize: every call
//! returns [`Error`], so code that needs real JSON fails loudly instead
//! of writing an empty document. The benchmark calls none of it.

use std::fmt;

#[derive(Debug)]
pub struct Error;

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("serde_json stand-in: built without the registry crates")
    }
}

impl std::error::Error for Error {}

pub type Result<T> = std::result::Result<T, Error>;

pub fn to_string<T: ?Sized + serde::Serialize>(_value: &T) -> Result<String> {
    Err(Error)
}

pub fn to_string_pretty<T: ?Sized + serde::Serialize>(_value: &T) -> Result<String> {
    Err(Error)
}

pub fn from_str<'a, T: serde::Deserialize<'a>>(_s: &'a str) -> Result<T> {
    Err(Error)
}
