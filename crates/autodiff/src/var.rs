//! The differentiable variable and the backward pass.

use std::cell::RefCell;
use std::collections::HashSet;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};

use tdp_tensor::F32Tensor;

static NEXT_ID: AtomicU64 = AtomicU64::new(0);

/// Gradient function: maps the output gradient to one gradient per parent,
/// each shaped like the corresponding parent's value.
pub(crate) type BackwardFn = Box<dyn Fn(&F32Tensor) -> Vec<F32Tensor>>;

pub(crate) struct VarInner {
    id: u64,
    value: RefCell<F32Tensor>,
    grad: RefCell<Option<F32Tensor>>,
    requires_grad: bool,
    parents: Vec<Var>,
    backward: Option<BackwardFn>,
}

impl Drop for VarInner {
    // Default recursive drop of a long `Rc` chain overflows the stack for
    // deep tapes (e.g. many-iteration unrolled programs); unlink iteratively.
    fn drop(&mut self) {
        let mut stack: Vec<Var> = std::mem::take(&mut self.parents);
        while let Some(v) = stack.pop() {
            if let Ok(mut inner) = Rc::try_unwrap(v.0) {
                stack.append(&mut inner.parents);
                // `inner` drops here with no parents left -> no recursion.
            }
        }
    }
}

/// A node in the dynamically-taped computation graph.
///
/// `Var` is a cheap handle (`Rc` clone). Graphs are built eagerly by calling
/// ops (see [`crate::ops`]); dropping the last handle to an output frees the
/// whole tape hanging off it.
#[derive(Clone)]
pub struct Var(pub(crate) Rc<VarInner>);

impl Var {
    fn make(
        value: F32Tensor,
        requires_grad: bool,
        parents: Vec<Var>,
        backward: Option<BackwardFn>,
    ) -> Var {
        Var(Rc::new(VarInner {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            value: RefCell::new(value),
            grad: RefCell::new(None),
            requires_grad,
            parents,
            backward,
        }))
    }

    /// A leaf that does not require gradients (inputs, labels).
    pub fn constant(value: F32Tensor) -> Var {
        Var::make(value, false, Vec::new(), None)
    }

    /// A trainable leaf: its gradient is retained across the backward pass.
    pub fn param(value: F32Tensor) -> Var {
        Var::make(value, true, Vec::new(), None)
    }

    pub(crate) fn from_op(value: F32Tensor, parents: Vec<Var>, backward: BackwardFn) -> Var {
        Var::make(value, false, parents, Some(backward))
    }

    /// One tape node for a fused operator built outside this crate: its
    /// forward `value`, and a `backward` that maps the output gradient to
    /// one gradient per parent, each shaped like that parent's value. A
    /// kernel that would otherwise be a chain of elementwise ops records
    /// one node and one backward pass instead of one per step.
    pub fn fused(
        value: F32Tensor,
        parents: Vec<Var>,
        backward: impl Fn(&F32Tensor) -> Vec<F32Tensor> + 'static,
    ) -> Var {
        Var::from_op(value, parents, Box::new(backward))
    }

    /// Unique node id (creation order).
    pub fn id(&self) -> u64 {
        self.0.id
    }

    /// Snapshot of the current value (O(1): tensors are copy-on-write).
    pub fn value(&self) -> F32Tensor {
        self.0.value.borrow().clone()
    }

    /// Shape of the value.
    pub fn shape(&self) -> Vec<usize> {
        self.0.value.borrow().shape().to_vec()
    }

    /// Number of elements in the value.
    pub fn numel(&self) -> usize {
        self.0.value.borrow().numel()
    }

    /// Whether this is a trainable leaf.
    pub fn is_param(&self) -> bool {
        self.0.requires_grad
    }

    /// Whether this is a leaf (no recorded parents).
    pub fn is_leaf(&self) -> bool {
        self.0.parents.is_empty()
    }

    /// Currently accumulated gradient, if any.
    pub fn grad(&self) -> Option<F32Tensor> {
        self.0.grad.borrow().clone()
    }

    /// Clear the accumulated gradient.
    pub fn zero_grad(&self) {
        *self.0.grad.borrow_mut() = None;
    }

    /// Accumulate a gradient contribution from outside the tape (gradient
    /// clipping, hand-written adjoints). Shape must match the value.
    pub fn add_grad(&self, g: F32Tensor) {
        self.accumulate_grad(g);
    }

    /// Replace the stored value in place — the optimizer update path.
    /// Only meaningful on leaves; interior nodes are recomputed each forward.
    pub fn set_value(&self, value: F32Tensor) {
        assert!(
            self.is_leaf(),
            "set_value on an interior graph node would desynchronise the tape"
        );
        *self.0.value.borrow_mut() = value;
    }

    /// A new constant leaf sharing this node's current value — cuts the tape.
    pub fn detach(&self) -> Var {
        Var::constant(self.value())
    }

    pub(crate) fn accumulate_grad(&self, g: F32Tensor) {
        debug_assert_eq!(
            g.shape(),
            self.0.value.borrow().shape(),
            "gradient shape must match value shape"
        );
        let mut slot = self.0.grad.borrow_mut();
        match slot.as_mut() {
            Some(acc) => acc.add_assign(&g),
            None => *slot = Some(g),
        }
    }

    /// Run reverse-mode differentiation seeded with ones (suitable for a
    /// scalar loss; for non-scalar outputs this computes the gradient of the
    /// elementwise sum).
    pub fn backward(&self) {
        let seed = F32Tensor::ones(&self.shape());
        self.backward_with(seed);
    }

    /// Run reverse-mode differentiation with an explicit output gradient.
    pub fn backward_with(&self, seed: F32Tensor) {
        assert_eq!(
            seed.shape(),
            self.shape().as_slice(),
            "backward seed shape must match output shape"
        );
        let order = self.topo_order();
        self.accumulate_grad(seed);
        // `order` is parents-before-children; walk it childmost-first.
        for node in order.iter().rev() {
            let Some(bw) = node.0.backward.as_ref() else {
                continue;
            };
            // A node with no accumulated gradient is off the path from the
            // seed (e.g. an unused TVF output column): nothing to propagate.
            let Some(g) = node.grad() else { continue };
            let parent_grads = bw(&g);
            assert_eq!(
                parent_grads.len(),
                node.0.parents.len(),
                "backward closure must yield one gradient per parent"
            );
            // A constant leaf's gradient has no reader: it is dropped.
            let readers = node.0.parents.iter().zip(parent_grads);
            for (p, pg) in readers.filter(|(p, _)| p.is_param() || !p.is_leaf()) {
                p.accumulate_grad(pg);
            }
            // Interior gradients are no longer needed once propagated;
            // dropping them keeps long training loops lean.
            if !node.0.requires_grad && !node.is_leaf() {
                node.zero_grad();
            }
        }
    }

    /// Topological order (ancestors before descendants) of the subgraph
    /// reachable from `self`. Iterative DFS — query graphs can be deep.
    fn topo_order(&self) -> Vec<Var> {
        let mut order: Vec<Var> = Vec::new();
        let mut visited: HashSet<u64> = HashSet::new();
        // Stack frames: (node, next-parent-index).
        let mut stack: Vec<(Var, usize)> = vec![(self.clone(), 0)];
        visited.insert(self.0.id);
        while let Some((node, pi)) = stack.pop() {
            if pi < node.0.parents.len() {
                let parent = node.0.parents[pi].clone();
                stack.push((node, pi + 1));
                if visited.insert(parent.0.id) {
                    stack.push((parent, 0));
                }
            } else {
                order.push(node);
            }
        }
        order
    }

    /// All trainable leaves reachable from this node, in first-use order.
    /// This is how a compiled query discovers the parameters embedded in
    /// its UDFs/TVFs (paper Listing 5: `compiled_query.parameters()`).
    pub fn parameters(&self) -> Vec<Var> {
        self.topo_order()
            .into_iter()
            .filter(|v| v.is_param())
            .collect()
    }
}

impl std::fmt::Debug for Var {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Var(id={}, shape={:?}, param={}, leaf={})",
            self.0.id,
            self.shape(),
            self.is_param(),
            self.is_leaf()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdp_tensor::Tensor;

    fn t(v: Vec<f32>) -> F32Tensor {
        let n = v.len();
        Tensor::from_vec(v, &[n])
    }

    #[test]
    fn leaf_flags() {
        let p = Var::param(t(vec![1.0]));
        let c = Var::constant(t(vec![1.0]));
        assert!(p.is_param() && p.is_leaf());
        assert!(!c.is_param() && c.is_leaf());
        let s = p.add(&c);
        assert!(!s.is_leaf() && !s.is_param());
    }

    #[test]
    fn simple_chain_gradient() {
        let x = Var::param(t(vec![2.0]));
        let y = x.mul(&x).mul_scalar(3.0); // y = 3x^2, dy/dx = 6x = 12
        y.backward();
        assert_eq!(y.value().item(), 12.0);
        assert_eq!(x.grad().unwrap().item(), 12.0);
    }

    #[test]
    fn gradient_accumulates_across_backwards() {
        let x = Var::param(t(vec![1.0]));
        let y = x.mul_scalar(2.0);
        y.backward();
        let y2 = x.mul_scalar(2.0);
        y2.backward();
        assert_eq!(x.grad().unwrap().item(), 4.0, "two backwards accumulate");
        x.zero_grad();
        assert!(x.grad().is_none());
    }

    #[test]
    fn diamond_graph_accumulates_fanout() {
        // y = x*x + x  ==> dy/dx = 2x + 1
        let x = Var::param(t(vec![3.0]));
        let y = x.mul(&x).add(&x);
        y.backward();
        assert_eq!(x.grad().unwrap().item(), 7.0);
    }

    #[test]
    fn set_value_updates_leaf() {
        let x = Var::param(t(vec![1.0]));
        x.set_value(t(vec![5.0]));
        let y = x.mul_scalar(2.0);
        assert_eq!(y.value().item(), 10.0);
    }

    #[test]
    #[should_panic(expected = "interior graph node")]
    fn set_value_on_interior_panics() {
        let x = Var::param(t(vec![1.0]));
        let y = x.mul_scalar(2.0);
        y.set_value(t(vec![0.0]));
    }

    #[test]
    fn detach_cuts_the_tape() {
        let x = Var::param(t(vec![2.0]));
        let y = x.mul(&x).detach().mul_scalar(5.0);
        y.backward();
        assert!(x.grad().is_none(), "no gradient may flow through detach");
    }

    #[test]
    fn parameters_discovery() {
        let w1 = Var::param(t(vec![1.0]));
        let w2 = Var::param(t(vec![2.0]));
        let x = Var::constant(t(vec![3.0]));
        let y = w1.mul(&x).add(&w2);
        let ps = y.parameters();
        assert_eq!(ps.len(), 2);
        let ids: Vec<u64> = ps.iter().map(|p| p.id()).collect();
        assert!(ids.contains(&w1.id()) && ids.contains(&w2.id()));
    }

    #[test]
    fn deep_chain_does_not_overflow_stack() {
        let x = Var::param(t(vec![1.0]));
        let mut y = x.clone();
        for _ in 0..20_000 {
            y = y.add_scalar(0.0);
        }
        y.backward();
        assert_eq!(x.grad().unwrap().item(), 1.0);
    }

    #[test]
    fn constant_leaves_get_no_gradient() {
        let x = Var::param(t(vec![2.0, -1.0]));
        let c = Var::constant(t(vec![3.0, 4.0]));
        let y = x.mul(&c).add(&c).sum();
        y.backward();
        assert!(c.grad().is_none(), "nothing reads a constant's gradient");
        assert_eq!(x.grad().unwrap().to_vec(), vec![3.0, 4.0]);
    }

    #[test]
    fn unused_branch_gets_no_gradient() {
        let x = Var::param(t(vec![1.0]));
        let _unused = x.mul_scalar(100.0);
        let y = x.mul_scalar(2.0);
        y.backward();
        assert_eq!(x.grad().unwrap().item(), 2.0);
    }
}
