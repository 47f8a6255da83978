//! Executor errors.

/// Anything that can go wrong while lowering or running a plan.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// Referenced table is not in the catalog.
    UnknownTable(String),
    /// Referenced column is not in the current batch.
    UnknownColumn(String),
    /// Referenced function is not registered.
    UnknownFunction(String),
    /// The operation is valid SQL but not supported by this executor.
    Unsupported(String),
    /// Type/encoding mismatch between operator and operand.
    TypeMismatch(String),
    /// The differentiable executor cannot lower this construct.
    NotDifferentiable(String),
    /// A UDF/TVF reported a failure.
    Udf(String),
    /// A statement-parameter problem: unbound slot, arity mismatch, or a
    /// binding the engine cannot evaluate (e.g. NULL in this NULL-free
    /// dialect).
    Param(String),
    /// A call violates a function's declared signature: wrong arity,
    /// wrong argument type, a TVF used in a position it does not
    /// support, or a TVF whose output drifted from its declared schema.
    /// Declared-signature violations surface at prepare time.
    Signature(String),
    /// A memory charge pushed the query past the engine's byte budget
    /// (`TdpEngine::with_memory_budget`). Aborts only the offending query; names the
    /// operator whose allocation breached and the refused byte count.
    MemoryBudget {
        /// Operator whose allocation breached (e.g. `join build`).
        operator: String,
        /// Bytes the refused charge asked for.
        requested: u64,
    },
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::UnknownTable(t) => write!(f, "unknown table '{t}'"),
            ExecError::UnknownColumn(c) => write!(f, "unknown column '{c}'"),
            ExecError::UnknownFunction(n) => write!(f, "unknown function '{n}'"),
            ExecError::Unsupported(m) => write!(f, "unsupported operation: {m}"),
            ExecError::TypeMismatch(m) => write!(f, "type mismatch: {m}"),
            ExecError::NotDifferentiable(m) => {
                write!(f, "not differentiable (compile without TRAINABLE?): {m}")
            }
            ExecError::Udf(m) => write!(f, "UDF error: {m}"),
            ExecError::Param(m) => write!(f, "parameter error: {m}"),
            ExecError::Signature(m) => write!(f, "function signature error: {m}"),
            ExecError::MemoryBudget {
                operator,
                requested,
            } => write!(
                f,
                "out of memory budget: {operator} needed {requested} more bytes \
                 than the engine's memory budget allows"
            ),
        }
    }
}

impl std::error::Error for ExecError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_name_the_offender() {
        assert!(ExecError::UnknownTable("docs".into())
            .to_string()
            .contains("docs"));
        assert!(ExecError::UnknownColumn("x".into())
            .to_string()
            .contains("'x'"));
        assert!(ExecError::NotDifferentiable("join".into())
            .to_string()
            .contains("TRAINABLE"));
        let oom = ExecError::MemoryBudget {
            operator: "join build".into(),
            requested: 4096,
        }
        .to_string();
        assert!(oom.contains("out of memory budget"));
        assert!(oom.contains("join build"));
        assert!(oom.contains("4096"));
    }
}
