//! The autograd variable and the reverse-mode tape.

use std::cell::{Cell, RefCell};
use std::collections::HashSet;
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};

use geotorch_tensor::Tensor;

static NEXT_ID: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static NO_GRAD: Cell<bool> = const { Cell::new(false) };
}

/// Run `f` with tape recording disabled on this thread.
///
/// Inside the closure every op result is a *leaf*: [`Var::from_op`] drops
/// the parent list and the backward closure, so no autograd graph is
/// built and intermediate values are freed as soon as the ops that
/// consume them finish. This is the inference fast path — the serving
/// scheduler and the trainer's evaluation passes run under it — and it
/// mirrors `torch.no_grad()`.
///
/// Nesting is allowed; the previous state is restored on exit (also on
/// panic). Calling `backward` on a value produced under `no_grad` is a
/// no-op beyond seeding that value's own gradient slot.
pub fn no_grad<T>(f: impl FnOnce() -> T) -> T {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            NO_GRAD.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(NO_GRAD.with(|c| c.replace(true)));
    f()
}

/// Whether tape recording is currently disabled on this thread.
pub fn is_no_grad() -> bool {
    NO_GRAD.with(|c| c.get())
}

/// Computes gradients for a node's parents given the node's output
/// gradient. Returns one tensor per parent, in parent order.
pub(crate) type BackwardFn = Box<dyn Fn(&Tensor) -> Vec<Tensor>>;

pub(crate) struct VarInner {
    id: usize,
    pub(crate) value: Tensor,
    pub(crate) grad: Option<Tensor>,
    requires_grad: bool,
    parents: Vec<Var>,
    backward: Option<BackwardFn>,
}

/// A node in the autograd graph: a tensor value plus the bookkeeping needed
/// to differentiate through the operations that produced it.
///
/// `Var` is a cheap reference-counted handle; cloning shares the node.
/// The graph is single-threaded (like PyTorch's Python-side tape); kernels
/// inside each op may still run data-parallel via `geotorch_tensor::Device`.
#[derive(Clone)]
pub struct Var {
    inner: Rc<RefCell<VarInner>>,
}

impl Var {
    fn make(value: Tensor, requires_grad: bool, parents: Vec<Var>, backward: Option<BackwardFn>) -> Var {
        Var {
            inner: Rc::new(RefCell::new(VarInner {
                id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
                value,
                grad: None,
                requires_grad,
                parents,
                backward,
            })),
        }
    }

    /// A leaf that does not require gradients (inputs, labels, masks).
    pub fn constant(value: Tensor) -> Var {
        Var::make(value, false, Vec::new(), None)
    }

    /// A trainable leaf: gradients accumulate here during backward.
    pub fn parameter(value: Tensor) -> Var {
        Var::make(value, true, Vec::new(), None)
    }

    /// Internal: an op result node. Under [`no_grad`], or when every
    /// parent is a constant, the tape entry is elided — the result is a
    /// constant leaf with no parents and no backward closure. No gradient
    /// can reach a parameter through an op whose inputs are all constant,
    /// so a constant subgraph (`concat`/`narrow`/`reshape` of input
    /// batches) never becomes tape nodes or gradient work.
    pub(crate) fn from_op(value: Tensor, parents: Vec<Var>, backward: BackwardFn) -> Var {
        if is_no_grad() || parents.iter().all(Var::is_constant) {
            return Var::constant(value);
        }
        Var::make(value, false, parents, Some(backward))
    }

    /// Stable identity of this node.
    pub fn id(&self) -> usize {
        self.inner.borrow().id
    }

    /// The value (O(1) clone of the shared buffer).
    pub fn value(&self) -> Tensor {
        self.inner.borrow().value.clone()
    }

    /// Shape of the value.
    pub fn shape(&self) -> Vec<usize> {
        self.inner.borrow().value.shape().to_vec()
    }

    /// The accumulated gradient, if backward has reached this node.
    pub fn grad(&self) -> Option<Tensor> {
        self.inner.borrow().grad.clone()
    }

    /// Whether gradients accumulate at this leaf.
    pub fn requires_grad(&self) -> bool {
        self.inner.borrow().requires_grad
    }

    /// Whether this is a leaf no gradient can reach: a [`Var::constant`],
    /// a result computed under [`no_grad`], or an op over constants.
    pub(crate) fn is_constant(&self) -> bool {
        let inner = self.inner.borrow();
        !inner.requires_grad && inner.backward.is_none()
    }

    /// Clear the accumulated gradient.
    pub fn zero_grad(&self) {
        self.inner.borrow_mut().grad = None;
    }

    /// Replace the value in place (used by optimizers; does not touch the
    /// tape).
    pub fn assign(&self, value: Tensor) {
        let mut inner = self.inner.borrow_mut();
        assert_eq!(
            inner.value.shape(),
            value.shape(),
            "Var::assign shape mismatch"
        );
        inner.value = value;
    }

    /// Mutate the value through `f` without going through a fresh tensor
    /// (the in-place optimiser path; does not touch the tape). When the
    /// value's storage is uniquely held — no live tape closure or caller
    /// clone — `f`'s in-place tensor ops mutate the buffer directly;
    /// shared storage copy-on-writes, so results are always identical to
    /// [`Var::assign`] with a freshly built tensor.
    ///
    /// # Panics
    /// If `f` changes the value's shape.
    pub fn update_value(&self, f: impl FnOnce(&mut Tensor)) {
        let mut inner = self.inner.borrow_mut();
        let shape = inner.value.shape().to_vec();
        f(&mut inner.value);
        assert_eq!(
            inner.value.shape(),
            &shape[..],
            "Var::update_value must preserve shape"
        );
    }

    /// A new constant leaf sharing this node's current value — gradients do
    /// not flow through.
    pub fn detach(&self) -> Var {
        Var::constant(self.value())
    }

    /// Run reverse-mode differentiation from this node.
    ///
    /// The node is seeded with a gradient of ones (so for scalar losses this
    /// computes ∂loss/∂p for every parameter `p` reachable on the tape).
    /// Gradients *accumulate*: call [`Var::zero_grad`] (or
    /// `Optimizer::zero_grad`) between steps.
    pub fn backward(&self) {
        let seed = Tensor::ones(self.inner.borrow().value.shape());
        self.backward_with(seed);
    }

    /// Seed or accumulate a gradient directly (used by gradient-surgery
    /// utilities like `schedule::clip_grad_norm`).
    ///
    /// # Panics
    /// If the gradient shape does not match the value shape.
    pub fn seed_grad(&self, grad: Tensor) {
        let mut inner = self.inner.borrow_mut();
        assert_eq!(
            inner.value.shape(),
            grad.shape(),
            "seed_grad shape mismatch"
        );
        match &mut inner.grad {
            Some(g) => g.add_assign(&grad),
            slot @ None => *slot = Some(grad),
        }
    }

    /// Backward with an explicit output gradient.
    pub fn backward_with(&self, seed: Tensor) {
        // Topological order via iterative post-order DFS.
        let mut order: Vec<Var> = Vec::new();
        let mut visited: HashSet<usize> = HashSet::new();
        let mut stack: Vec<(Var, usize)> = vec![(self.clone(), 0)];
        visited.insert(self.id());
        while let Some((node, child_idx)) = stack.pop() {
            let next_child = {
                let inner = node.inner.borrow();
                inner.parents.get(child_idx).cloned()
            };
            match next_child {
                Some(child) => {
                    stack.push((node, child_idx + 1));
                    if visited.insert(child.id()) {
                        stack.push((child, 0));
                    }
                }
                None => order.push(node),
            }
        }

        {
            let mut inner = self.inner.borrow_mut();
            assert_eq!(
                inner.value.shape(),
                seed.shape(),
                "backward seed shape mismatch"
            );
            match &mut inner.grad {
                Some(g) => g.add_assign(&seed),
                slot @ None => *slot = Some(seed),
            }
        }

        // Reverse topological order: every node is processed after all its
        // consumers, so its gradient is complete when its backward runs.
        for node in order.iter().rev() {
            let (grad, parents, has_backward) = {
                let inner = node.inner.borrow();
                (
                    inner.grad.clone(),
                    inner.parents.clone(),
                    inner.backward.is_some(),
                )
            };
            let Some(grad) = grad else { continue };
            if !has_backward {
                continue;
            }
            let parent_grads = {
                let inner = node.inner.borrow();
                (inner.backward.as_ref().expect("checked above"))(&grad)
            };
            assert_eq!(
                parent_grads.len(),
                parents.len(),
                "backward returned {} grads for {} parents",
                parent_grads.len(),
                parents.len()
            );
            for (parent, pg) in parents.iter().zip(parent_grads) {
                let mut pi = parent.inner.borrow_mut();
                assert_eq!(
                    pi.value.shape(),
                    pg.shape(),
                    "gradient shape {:?} does not match parent value shape {:?}",
                    pg.shape(),
                    pi.value.shape()
                );
                match &mut pi.grad {
                    Some(g) => g.add_assign(&pg),
                    slot @ None => *slot = Some(pg),
                }
            }
            // Free the intermediate gradient once consumed (leaves keep
            // theirs for the optimizer).
            if has_backward {
                node.inner.borrow_mut().grad = None;
            }
        }
    }
}

impl Drop for VarInner {
    fn drop(&mut self) {
        // Deep tapes (long sequences, many layers) would otherwise drop
        // recursively through the parent chain and overflow the stack.
        // Unlink iteratively: whenever we hold the last reference to a
        // parent, steal its own parents onto the worklist first.
        let mut stack = std::mem::take(&mut self.parents);
        while let Some(var) = stack.pop() {
            if let Ok(cell) = Rc::try_unwrap(var.inner) {
                let mut inner = cell.into_inner();
                stack.append(&mut inner.parents);
            }
        }
    }
}

impl std::fmt::Debug for Var {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.borrow();
        write!(
            f,
            "Var(id={}, value={:?}, requires_grad={})",
            inner.id, inner.value, inner.requires_grad
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_has_no_grad_flow() {
        let c = Var::constant(Tensor::scalar(5.0));
        assert!(!c.requires_grad());
        assert!(c.grad().is_none());
    }

    #[test]
    fn simple_chain_backward() {
        // y = (w * x), dy/dw = x
        let w = Var::parameter(Tensor::from_vec(vec![2.0, 3.0], &[2]));
        let x = Var::constant(Tensor::from_vec(vec![4.0, 5.0], &[2]));
        let y = w.mul(&x).sum_all();
        y.backward();
        assert_eq!(w.grad().unwrap().as_slice(), &[4.0, 5.0]);
    }

    #[test]
    fn gradient_accumulates_across_backward_calls() {
        let w = Var::parameter(Tensor::scalar(1.0));
        for _ in 0..3 {
            let y = w.mul_scalar(2.0).sum_all();
            y.backward();
        }
        assert_eq!(w.grad().unwrap().item(), 6.0);
        w.zero_grad();
        assert!(w.grad().is_none());
    }

    #[test]
    fn diamond_graph_accumulates_through_both_paths() {
        // y = w*w + w  →  dy/dw = 2w + 1
        let w = Var::parameter(Tensor::scalar(3.0));
        let y = w.mul(&w).add(&w).sum_all();
        y.backward();
        assert_eq!(w.grad().unwrap().item(), 7.0);
    }

    #[test]
    fn shared_subexpression_counted_once_per_use() {
        // s = w + w; y = s * s = 4w²  →  dy/dw = 8w
        let w = Var::parameter(Tensor::scalar(2.0));
        let s = w.add(&w);
        let y = s.mul(&s).sum_all();
        y.backward();
        assert_eq!(w.grad().unwrap().item(), 16.0);
    }

    #[test]
    fn detach_blocks_gradient() {
        let w = Var::parameter(Tensor::scalar(2.0));
        let y = w.detach().mul(&w).sum_all();
        y.backward();
        // Only the non-detached path contributes: d/dw (c * w) = c = 2.
        assert_eq!(w.grad().unwrap().item(), 2.0);
    }

    #[test]
    fn assign_updates_value_in_place() {
        let w = Var::parameter(Tensor::scalar(1.0));
        w.assign(Tensor::scalar(9.0));
        assert_eq!(w.value().item(), 9.0);
    }

    #[test]
    #[should_panic(expected = "assign shape mismatch")]
    fn assign_rejects_shape_change() {
        Var::parameter(Tensor::zeros(&[2])).assign(Tensor::zeros(&[3]));
    }

    #[test]
    fn no_grad_matches_recorded_values_but_blocks_gradients() {
        let w = Var::parameter(Tensor::from_vec(vec![2.0, 3.0], &[2]));
        let x = Var::constant(Tensor::from_vec(vec![4.0, 5.0], &[2]));
        let recorded = w.mul(&x).sum_all();
        let silent = no_grad(|| w.mul(&x).sum_all());
        assert_eq!(silent.value().item(), recorded.value().item());
        assert!(!is_no_grad(), "flag restored after the closure");
        silent.backward();
        assert!(
            w.grad().is_none(),
            "no_grad results must not route gradients to parameters"
        );
        recorded.backward();
        assert_eq!(w.grad().unwrap().as_slice(), &[4.0, 5.0]);
    }

    #[test]
    fn no_grad_nests_and_restores_on_panic() {
        no_grad(|| {
            assert!(is_no_grad());
            no_grad(|| assert!(is_no_grad()));
            assert!(is_no_grad(), "inner scope must not clear the outer one");
        });
        assert!(!is_no_grad());
        let caught = std::panic::catch_unwind(|| no_grad(|| panic!("boom")));
        assert!(caught.is_err());
        assert!(!is_no_grad(), "flag restored even when the closure panics");
    }

    #[test]
    fn ops_over_constants_are_constant_leaves() {
        let leaf = |v: &Var| {
            let inner = v.inner.borrow();
            !inner.requires_grad && inner.parents.is_empty() && inner.backward.is_none()
        };
        let a = Var::constant(Tensor::ones(&[2, 3, 4]));
        let b = Var::constant(Tensor::zeros(&[2, 1, 4]));
        let cat = Var::concat(&[&a, &b], 1);
        assert!(leaf(&cat), "concat of constants");
        assert!(leaf(&cat.narrow(1, 1, 3)), "narrow of a constant");
        assert!(leaf(&cat.flatten_batch()), "flatten_batch of a constant");
        let values = Tensor::concat(&[&a.value(), &b.value()], 1);
        assert_eq!(cat.flatten_batch().value().as_slice(), values.as_slice());
        // One trainable parent puts the op back on the tape.
        let w = Var::parameter(Tensor::ones(&[2, 1, 4]));
        let mixed = Var::concat(&[&a, &w], 1);
        assert!(!leaf(&mixed));
        mixed.sum_all().backward();
        assert_eq!(w.grad().unwrap().as_slice(), &[1.0; 8]);
    }

    #[test]
    fn deep_chain_does_not_overflow_stack() {
        let mut v = Var::parameter(Tensor::scalar(1.0));
        let w = v.clone();
        for _ in 0..50_000 {
            v = v.add_scalar(0.0);
        }
        let loss = v.sum_all();
        loss.backward();
        assert_eq!(w.grad().unwrap().item(), 1.0);
    }
}
