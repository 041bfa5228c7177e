//! The rule set: the eight ported textual rules plus the five semantic
//! lints built on the parser and call graph, and the panic-capable
//! site enumerator the three reachability lints share.

pub mod semantic;
pub mod sites;
pub mod textual;
