//! Distributed transactions (paper §IV-B): Local (1PC), XA (2PC with a
//! durable decision log and recovery), and BASE (Seata-style AT mode with a
//! transaction coordinator and automatic compensation).

pub mod base;
pub mod xa;

pub use base::{BranchUndo, Compensation, TransactionCoordinator};
pub use xa::{XaDecision, XaLog, XaPhaseObserver, XaRecoveryManager};

use serde::{Deserialize, Serialize};
use std::fmt;

/// The three transaction types selectable per session via
/// `SET VARIABLE transaction_type = LOCAL | XA | BASE`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum TransactionType {
    #[default]
    Local,
    Xa,
    Base,
}

impl TransactionType {
    pub fn parse(text: &str) -> Option<Self> {
        match text.to_uppercase().as_str() {
            "LOCAL" => Some(TransactionType::Local),
            "XA" => Some(TransactionType::Xa),
            "BASE" => Some(TransactionType::Base),
            _ => None,
        }
    }
}

impl fmt::Display for TransactionType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransactionType::Local => write!(f, "LOCAL"),
            TransactionType::Xa => write!(f, "XA"),
            TransactionType::Base => write!(f, "BASE"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrip() {
        for t in [
            TransactionType::Local,
            TransactionType::Xa,
            TransactionType::Base,
        ] {
            assert_eq!(TransactionType::parse(&t.to_string()), Some(t));
        }
        assert_eq!(TransactionType::parse("xa"), Some(TransactionType::Xa));
        assert_eq!(TransactionType::parse("nope"), None);
    }
}
