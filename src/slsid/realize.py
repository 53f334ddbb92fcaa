"""Realization engines: Ho-Kalman on selection-indexed Hankels, the
stochastic/deterministic model conversions, and the minimal covariance
realization pipeline.

Second moments are closed-form.  Under i.i.d. switching each per-mode moment
is X_s = p_s Xbar with Xbar = sum_s w_s A_s Xbar A_s^T + const, one
generalized Lyapunov solve vec(Xbar) = (I - sum_s w_s A_s kron A_s)^{-1}
vec(const) that exists iff that operator, the model's mean_square, is Schur:

* state second moment: w = p, const = sum_s K_s Q_v[s] K_s^T;
* input-part moment on the sqrt(p)-absorbed dLSS: w = 1,
  const = sum_s Bt_s Q_u Bt_s^T.

Only the innovation gain is solved iteratively (Q_s enters it nonlinearly).  With
S_s = p_s T^{ys,ys}_{s,s} and P_s = p_s Pbar, Pbar solves Pbar = R(Pbar) with
      Q_s = S_s - p_s C Pbar C^T
      K_s = sqrt(p_s) (G_s - At_s Pbar C^T) Q_s^{-1}
      R(Pbar) = sum_s (At_s Pbar At_s^T + K_s Q_s K_s^T).
From Pbar = 0 it takes Newton (Kleinman) steps: with the closed loop
Abar_s = At_s - sqrt(p_s) K_s C at the current Pbar_k, each step is one
generalized Lyapunov solve
      Pbar - sum_s Abar_s Pbar Abar_s^T = R(Pbar_k) - sum_s Abar_s Pbar_k Abar_s^T,
which exists iff sum_s Abar_s kron Abar_s is Schur.  The solve stops when
the max-norm step of p_s Pbar falls below FP_TOL = 1e-10; its limits are the
innovation gain, p_s times the per-mode innovation second moment, and p_s
times the predictor-state second moment.  It fails typed: NotFullRankError
at a Q_s that is not positive definite or at a closed loop whose radius is
>= 1 (no stabilizing solution exists), and NonConvergenceError after
NEWTON_MAX_STEPS = 50 steps.
"""
from __future__ import annotations

import functools
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import combinations, repeat
from typing import Iterable, Iterator, List, Mapping, Sequence, Tuple, Union

import numpy as np

from .algebra import (
    EMPTY_WORD,
    Selection,
    Word,
    WordIndexedMatrixTable,
    _hankel_plan,
    build_hankel,
    enumerate_words,
    markov_table,
    required_words,
)
from .covariance import CovarianceTable
from .errors import (
    DimensionError,
    MissingMarkovParameterError,
    ModelInvalidError,
    NonConvergenceError,
    NoSelectionFoundError,
    NotFullRankError,
    NumericalError,
    SingularHankelError,
    SlsidError,
)
from .model import (
    RANK_TOL,
    DeterministicModel,
    InnovationModel,
    SwitchedModel,
    mean_square_operator,
    numerical_rank,
)

__all__ = [
    "KQIterationState",
    "state_second_moment",
    "input_state_second_moment",
    "ho_kalman",
    "associated_dlss",
    "associated_slss",
    "psi_uy",
    "lambda_ydyd",
    "covariance_realization",
    "iter_full_rank_selections",
]

# stopping rule of the innovation-gain solve, the one that still iterates;
# Newton converges in a few steps (2-9 measured), so the cap only stops a
# solve that cannot meet FP_TOL
FP_TOL = 1e-10
NEWTON_MAX_STEPS = 50
# a realization that searches a selection makes this many attempts; attempt
# a's searches examine at most SEARCH_RETRIES + a full-rank candidates
SEARCH_ATTEMPTS = 5
SEARCH_RETRIES = 200


def _stationary(mean_square: Tuple[np.ndarray, float], label: str) -> np.ndarray:
    """The operator of a family's mean_square pair; NonConvergenceError when
    it is not Schur, for then the family's second moments do not exist."""
    op, rho = mean_square
    if rho >= 1.0:
        raise NonConvergenceError(
            f"{label} is not mean-square stable (spectral radius {rho:.4f} >= 1); "
            "its second moment does not exist", last_delta=float("inf"))
    return op


def _lyapunov_mean(mean_square: Tuple[np.ndarray, float], const: np.ndarray,
                   label: str) -> np.ndarray:
    """Symmetric Xbar solving Xbar = sum_s w_s A_s Xbar A_s^T + const for the
    family's mean_square pair, if it exists (_stationary)."""
    op = _stationary(mean_square, label)
    n = const.shape[0]
    X = np.linalg.solve(np.eye(n * n) - op, const.reshape(-1)).reshape(n, n)
    return (X + X.T) / 2.0


def state_second_moment(m: SwitchedModel) -> np.ndarray:
    """Per-mode stationary second moments P_s = p_s E[x x^T] of the noise-driven state.

    P_s = p_s Pbar with Pbar = sum_s p_s A_s Pbar A_s^T + sum_s K_s Q_v[s] K_s^T,
    returned as a (D, n_x, n_x) array.
    """
    const = sum(m.K @ m.Q_v @ m.K.transpose(0, 2, 1))
    return m.p[:, None, None] * _lyapunov_mean(m.mean_square, const, "model")


def input_state_second_moment(
    m_d: DeterministicModel,
    q_u: np.ndarray,
    p: Sequence[float],
) -> np.ndarray:
    """Per-mode second moments Pt_s of the input-driven state of a dLSS.

    m_d has sqrt(p) absorbed into its A_s, so Pt_s = p_s Pbar with
        Pbar = sum_s A_s Pbar A_s^T + sum_s B_s Q_u B_s^T,
    returned as a (D, n_x, n_x) array.
    """
    p = np.asarray(p, dtype=float)
    D = m_d.n_modes
    if p.shape != (D,):
        raise DimensionError(f"p must have {D} entries, got {p.shape}")
    q_u = np.atleast_2d(np.asarray(q_u, dtype=float))
    const = sum(m_d.B @ q_u @ m_d.B.transpose(0, 2, 1))
    return p[:, None, None] * _lyapunov_mean(m_d.mean_square, const, "input-part realization")


def ho_kalman(sel: Selection, M: WordIndexedMatrixTable, M_eps: np.ndarray) -> DeterministicModel:
    """Realize a dLSS from a Markov-function table through one selection.

    Builds the four Hankel matrices and returns
        A_s = H^{-1} H_s,  B_s = H^{-1} H_{alpha,s},  C = H_beta,  D = M_eps.
    The inversion is a rank-revealing solve: if the numerical rank of H
    (its singular values above RANK_TOL times the largest) is below n the
    selection cannot support dimension n and SingularHankelError reports
    the rank (choose a different selection).
    """
    H, H_sigma, H_alpha_sigma, H_beta = build_hankel(sel, M)
    n = sel.n
    U, s, Vh = np.linalg.svd(H)
    rank = int(np.sum(s > RANK_TOL * s[0])) if s[0] > 0 else 0
    if rank < n:
        raise SingularHankelError(
            f"Hankel matrix has numerical rank {rank} < n = {n}", rank=rank
        )

    def solve(rhs: np.ndarray) -> np.ndarray:
        # one stack per call: the matmuls of a per-mode loop, to the bit
        return Vh.T @ ((U.T @ rhs) / s[:, None])

    M_eps = np.atleast_2d(np.asarray(M_eps, dtype=float))
    if M_eps.shape != M.shape:
        raise DimensionError(
            f"M_eps shape {M_eps.shape} does not match table shape {M.shape}"
        )
    return DeterministicModel(A=solve(H_sigma), B=solve(H_alpha_sigma), C=H_beta, Dmat=M_eps)


def associated_dlss(m: SwitchedModel) -> DeterministicModel:
    """The deterministic realization of a stochastic model's covariances.

    Returns ({sqrt(p_s) A_s}, {[sqrt(p_s) B_s, G_s]}, C, [D, I]) with
    G_s = (1/sqrt(p_s)) (A_s P_s C^T + K_s Q_v[s] F^T) built on the
    stationary second moments P_s.  Its Markov parameters stack
    Lambda^{y,u}_w Q_u^{-1} and Lambda^{ys,ys}_w side by side.
    """
    m.validate()
    return _associated_dlss(m, state_second_moment(m))


def _associated_dlss(m: SwitchedModel, P: np.ndarray) -> DeterministicModel:
    """associated_dlss of a validated model whose state second moments P
    (state_second_moment) the caller has already solved for."""
    sqrt_p = np.sqrt(m.p)[:, None, None]
    G = (m.A @ P @ m.C.T + m.K @ m.Q_v @ m.F.T) / sqrt_p
    return DeterministicModel(A=sqrt_p * m.A, B=np.concatenate([sqrt_p * m.B, G], axis=2),
                              C=m.C, Dmat=np.hstack([m.Dmat, np.eye(m.n_y)]))


@dataclass
class KQIterationState:
    """Converged state of the innovation-gain solve; P, Q and K are (D, ...) arrays."""

    P: np.ndarray
    Q: np.ndarray
    K: np.ndarray
    iterations: int
    last_delta: float


def _kq_iteration(A_hat: np.ndarray, C_hat: np.ndarray, G_hat: np.ndarray,
                  t_ys: np.ndarray, p: np.ndarray) -> KQIterationState:
    # every mode steps at once: S, A, G, Q and K are (D, ...) stacks, with
    # one eigvalsh and one solve on the stack per step
    A = np.asarray(A_hat, dtype=float)
    D, n_x = A.shape[:2]
    p_col = p[:, None, None]
    sqrt_p = np.sqrt(p)[:, None, None]
    A_T = A.transpose(0, 2, 1)
    G = np.asarray(G_hat, dtype=float)
    S = p_col * np.asarray(t_ys, dtype=float)
    ones = np.ones(D)

    def kq_of(P, it):
        Q = S - p_col * (C_hat @ P @ C_hat.T)
        Q = (Q + Q.transpose(0, 2, 1)) / 2.0
        eig = np.linalg.eigvalsh(Q)
        bad = eig[:, 0] <= 1e-10 * np.abs(eig[:, -1])
        if bad.any():
            s = int(bad.argmax())
            raise NotFullRankError(
                f"per-mode innovation moment for mode {s + 1} is not positive "
                f"definite at iteration {it} (smallest eigenvalue {eig[s, 0]:.3e})"
            )
        rhs = sqrt_p * (G - A @ P @ C_hat.T)
        K = np.linalg.solve(Q, rhs.transpose(0, 2, 1)).transpose(0, 2, 1)
        return Q, K

    # P holds Pbar; the per-mode moments are p_s Pbar, and the step is
    # measured on those
    P = np.zeros((n_x, n_x))
    p_max = float(np.max(p))
    for it in range(NEWTON_MAX_STEPS):
        Q, K = kq_of(P, it)
        core = sum(A @ P @ A_T + K @ Q @ K.transpose(0, 2, 1))
        R = (core + core.T) / 2.0
        # Newton step on P = R(P): the derivative of R at P is
        # X -> sum_s Acl_s X Acl_s^T with the closed loop Acl_s = A_s - sqrt(p_s) K_s C
        A_cl = A - sqrt_p * (K @ C_hat)
        closed = mean_square_operator(A_cl, ones)
        if closed[1] >= 1.0:
            raise NotFullRankError(
                "no stabilizing solution: closed-loop mean-square radius "
                f"{closed[1]:.4f} >= 1 at Newton step {it}")
        P_next = _lyapunov_mean(closed, R - sum(A_cl @ P @ A_cl.transpose(0, 2, 1)),
                                "closed-loop family")
        delta = p_max * float(np.abs(P_next - P).max())
        P = P_next
        if delta < FP_TOL:
            Q, K = kq_of(P, it + 1)
            return KQIterationState(P=p_col * P, Q=Q, K=K, iterations=it + 1,
                                    last_delta=delta)
    raise NonConvergenceError(
        f"innovation-gain iteration did not converge in {NEWTON_MAX_STEPS} iterations "
        f"(last delta {delta:.3e})",
        last_delta=delta,
    )


def associated_slss(
    m_d: DeterministicModel,
    p: Sequence[float],
    t_ys: np.ndarray,
    q_u: np.ndarray,
) -> Tuple[InnovationModel, KQIterationState]:
    """Innovation-form stochastic model behind a [B | G]-split deterministic one.

    m_d must carry the stacked input/noise structure produced by
    associated_dlss or by Ho-Kalman on the joint Markov function: B blocks
    [B_hat | G_hat] with n_u = n_cols - n_y, D block [D | ~I].  Solves the
    innovation-gain equation and returns (model, state): the model
    ({A_hat_s/sqrt(p_s), B_hat_s/sqrt(p_s), K_s}, C, D, F=I) with Q_v[s] the
    per-mode innovation moment limit, and the KQIterationState of the solve.
    t_ys holds the per-mode moments T^{ys,ys}_{s,s} as a (D, n_y, n_y)
    array.  q_u only populates the model's input-covariance field.  A
    family whose sum_s A_hat_s kron A_hat_s (m_d.mean_square) is not Schur
    has no stationary moments: NonConvergenceError, as in _lyapunov_mean.
    """
    p = np.asarray(p, dtype=float)
    D = m_d.n_modes
    n_y = m_d.n_y
    if p.shape != (D,):
        raise DimensionError(f"p must have {D} entries, got {p.shape}")
    if np.shape(t_ys) != (D, n_y, n_y):
        raise DimensionError(f"t_ys must have shape {(D, n_y, n_y)}, got {np.shape(t_ys)}")
    n_u = m_d.n_u - n_y
    if n_u < 0:
        raise DimensionError(
            f"column count {m_d.n_u} below output dimension {n_y}; "
            "expected [B | G] stacked columns"
        )
    _stationary(m_d.mean_square, "joint realization")
    state = _kq_iteration(m_d.A, m_d.C, m_d.B[:, :, n_u:], t_ys, p)
    sqrt_p = np.sqrt(p)[:, None, None]
    model = InnovationModel.from_parts(
        A=m_d.A / sqrt_p, B=m_d.B[:, :, :n_u] / sqrt_p, K=state.K, C=m_d.C,
        Dmat=m_d.Dmat[:, :n_u], p=p, Q_u=q_u, Q_v=state.Q,
    ).validate()
    return model, state


def psi_uy(cov: CovarianceTable) -> WordIndexedMatrixTable:
    """Input-to-output Markov values Psi(w) = Lambda^{y,u}_w Q_u^{-1}.

    One batched np.linalg.solve against Q_u over every word of
    cov.lambda_yu, which gives the bits of a solve per word; the result
    shares cov.lambda_yu's index.  Q_u must be numerically nonsingular.
    """
    q_u = cov.q_u
    svals = np.linalg.svd(q_u, compute_uv=False)
    if svals[0] == 0.0 or svals[-1] < 1e-10 * svals[0]:
        raise NotFullRankError("input covariance Q_u is numerically singular")
    lam_yu = cov.lambda_yu
    values = np.linalg.solve(q_u, lam_yu.array.transpose(0, 2, 1)).transpose(0, 2, 1)
    return WordIndexedMatrixTable(lam_yu.shape, lam_yu.index, np.ascontiguousarray(values))


def lambda_ydyd(
    m_d: DeterministicModel,
    q_u: np.ndarray,
    p: Sequence[float],
    words: Union[Iterable[Word], Mapping[Word, int]],
) -> Tuple[WordIndexedMatrixTable, np.ndarray]:
    """Output covariances of the input-driven subsystem from its dLSS.

    m_d realizes Psi (the sqrt(p)-absorbed input-to-output Markov function)
    and Pt_s are its input-part moments (input_state_second_moment).
    Returns the Markov table (algebra.markov_table) of
    (A, core, C, E[y_d y_d^T]) over `words`, i.e. for w = s0 + rest
        Lambda^{yd,yd}_w = C A_rest ((1/p_s0) A_s0 Pt_s0 C^T + B_s0 Q_u D^T)
    and E[y_d y_d^T] = C (sum_s Pt_s) C^T + D Q_u D^T for the empty word,
    with the per-mode second moments as a (D, n_y, n_y) array,
        T^{yd,yd}_{s,s} = (1/p_s) C Pt_s C^T + D Q_u D^T.
    """
    p = np.asarray(p, dtype=float)
    q_u = np.atleast_2d(np.asarray(q_u, dtype=float))
    P = input_state_second_moment(m_d, q_u, p)  # checks p's length
    C, Dm, A = m_d.C, m_d.Dmat, m_d.A
    p_col = p[:, None, None]
    cores = (A @ P @ C.T) / p_col + m_d.B @ q_u @ Dm.T
    table = markov_table(A, cores, C, C @ sum(P) @ C.T + Dm @ q_u @ Dm.T, words)
    t_dd = (C @ P @ C.T) / p_col + Dm @ q_u @ Dm.T
    return table, (t_dd + t_dd.transpose(0, 2, 1)) / 2.0


@contextmanager
def _stage(stage: str):
    """Tag any exception raised in the block with the pipeline stage.

    The exception itself is re-raised, so its class and attributes survive.
    Package errors carry the stage in .stage and print it before their
    message; other exceptions get .stage and, when their only argument is a
    string, the same prefix on it.
    """
    try:
        yield
    except Exception as exc:
        exc.stage = stage
        if (not isinstance(exc, SlsidError) and len(exc.args) == 1
                and isinstance(exc.args[0], str)):
            exc.args = (f"{stage}: {exc.args[0]}",)
        raise


def _check_selections(sel: Union[Selection, str], sel_bar: Union[Selection, str],
                      n_x: int, n_bar: int, D: int, n_y: int, n_u: int) -> None:
    """Check that each explicit selection fits the realization asked of it.

    sel must have D modes, n_y rows, n_u + n_y columns and n = n_x; sel_bar
    the same with n_u columns and n = n_bar.  A misfit raises
    DimensionError naming the selection; "search" passes.
    """
    for name, s, n_cols, cols, n, n_name in (
            ("selection", sel, n_u + n_y, "n_u + n_y", n_x, "n_x"),
            ("selection_bar", sel_bar, n_u, "n_u", n_bar, "n_bar")):
        if not isinstance(s, Selection):
            continue
        if s.n_modes != D:
            raise DimensionError(f"{name} has {s.n_modes} modes but p has {D} entries")
        if s.n_y != n_y:
            raise DimensionError(f"{name} has n_y = {s.n_y} but the data has n_y = {n_y}")
        if s.n_cols != n_cols:
            raise DimensionError(f"{name} has {s.n_cols} columns but needs {cols} = {n_cols}")
        if s.n != n:
            raise DimensionError(f"{name} has n = {s.n} but {n_name} = {n}")


_STEP_2 = "step 2 (input-part realization)"


def _step_1(cov: CovarianceTable, n_x: int, n_bar: int,
            sel: Union[Selection, str], sel_bar: Union[Selection, str]) -> tuple:
    """Step 1 of the covariance realization: what every attempt reads.

    sel and sel_bar are Selections, checked by _check_selections, or
    "search".  Returns (psi, psi_eps, lam_yy, psi_joint, absent): Psi over
    Lambda^{y,u}'s words and its empty-word value, and Lambda^{y,y} and
    Psi's values gathered over the joint words, the nonempty words of both
    tables; each attempt's Lambda^{yd,yd} and joint table share lam_yy's
    index.  An explicit selection's missing words are found here and raised
    in the stage that reads them: step 1 (Lambda^{y,u}, both selections
    explicit) or steps 3-4 (the words of sel in `absent`).
    """
    cov.validate()
    _check_selections(sel, sel_bar, n_x, n_bar, cov.p.shape[0], cov.n_y, cov.n_u)
    lam_yu, lam_yy = cov.lambda_yu, cov.lambda_yy
    with _stage("step 1 (input Markov values)"):
        psi = psi_uy(cov)
        if isinstance(sel, Selection) and isinstance(sel_bar, Selection):
            lam_yu.rows_of([EMPTY_WORD, *required_words(sel_bar), *required_words(sel)])
        psi_eps = psi[EMPTY_WORD]
    in_yu = lam_yu.index
    joint_words = [w for w in lam_yy.index if w and w in in_yu]
    if len(joint_words) < len(lam_yy):
        lam_yy = WordIndexedMatrixTable(lam_yy.shape, joint_words,
                                        lam_yy.array[lam_yy.rows_of(joint_words)])
    psi_joint = psi.array[psi.rows_of(joint_words)]
    needed = required_words(sel) if isinstance(sel, Selection) else ()
    absent = [w for w in needed if w not in cov.lambda_yy] or [w for w in needed if w not in lam_yu]
    return psi, psi_eps, lam_yy, psi_joint, absent


def _steps_2_to_5(cov: CovarianceTable, first: tuple, n_x: int, n_bar: int,
                  sel: Union[Selection, str], sel_bar: Union[Selection, str],
                  attempt: int) -> tuple:
    """Steps 2-5 of attempt `attempt` on `first`, what _step_1 returned.

    Steps 2 and 5 realize at the attempt's index (_realize_at), so an
    attempt is a function of its index.  Returns (joint, bar, found, t_dd,
    m_full): the selections of steps 5 and 2, the searched ones under
    "selection_bar_found" and "selection_found", the input part's per-mode
    output moments T^{yd,yd}_{s,s} (step 3), and the joint realization,
    which step 6 converts.
    """
    psi, psi_eps, lam_yy, psi_joint, absent = first
    D = cov.p.shape[0]
    with _stage(_STEP_2):
        bar, m_psi = _realize_at(sel_bar, psi, psi_eps, n_bar, D, attempt)
    found = {"selection_bar_found": bar.to_jsonable()} if sel_bar == "search" else {}
    with _stage("steps 3-4 (noise-part covariances)"):
        lam_dd, t_dd = lambda_ydyd(m_psi, cov.q_u, cov.p, lam_yy.index)
        if absent:
            raise MissingMarkovParameterError(str(absent[0]))
        M = WordIndexedMatrixTable(
            (cov.n_y, cov.n_u + cov.n_y), lam_yy.index,
            np.concatenate([psi_joint, lam_yy.array - lam_dd.array], axis=2))
    with _stage("step 5 (joint realization)"):
        joint, m_full = _realize_at(sel, M, np.hstack([psi_eps, np.eye(cov.n_y)]), n_x, D,
                                    attempt)
    if sel == "search":
        found["selection_found"] = joint.to_jsonable()
    return joint, bar, found, t_dd, m_full


def covariance_realization(
    cov: CovarianceTable,
    n_x: int,
    n_bar: int,
    sel: Union[Selection, str],
    sel_bar: Union[Selection, str],
) -> Tuple[InnovationModel, dict]:
    """Minimal innovation-form model from output/input covariances.

    The six steps: (1) Psi values from Lambda^{y,u}; (2) Ho-Kalman on Psi at
    sel_bar realizes the input-driven part; (3) its output covariances are
    subtracted from Lambda^{y,y} to expose the noise part; (4) both blocks
    assemble the joint Markov values M(w) = [Lambda^{y,u}_w Q_u^{-1},
    Lambda^{ys,ys}_w]; (5) Ho-Kalman at sel realizes the joint model; (6) the
    innovation-gain equation on the leftover per-mode moments
    T^{yy}_{s,s} - T^{yd,yd}_{s,s} yields K and the innovation moments
    (see associated_slss).

    sel and sel_bar are Selections or "search"; an explicit one must fit
    the table, with n = n_x (sel) or n = n_bar (sel_bar), else
    DimensionError names it (_check_selections).  Step 1 runs once
    (_step_1), then attempt a = 0, 1, ... makes steps 2-6 at its index
    (_steps_2_to_5): SEARCH_ATTEMPTS attempts when either selection is
    "search", else one.  The first attempt that converts is returned as
    (model, diagnostics); a search adds "search_attempts" and, when an
    attempt failed first, "rejected_attempts", each failure as
    "<ErrorClass>: <message>" with the message leading with its stage.  A
    step-2 failure would recur at every later attempt (Psi is one table and
    the search limit only grows), so it ends the attempts; otherwise the
    last attempt's failure is raised.  Either way its stage is in .stage.
    """
    attempts = SEARCH_ATTEMPTS if "search" in (sel, sel_bar) else 1
    first = _step_1(cov, n_x, n_bar, sel, sel_bar)
    rejected: List[str] = []
    for attempt in range(attempts):
        try:
            joint, bar, found, t_dd, m_full = _steps_2_to_5(cov, first, n_x, n_bar, sel,
                                                            sel_bar, attempt)
            leftover = cov.t_yy - t_dd
            t_ys = (leftover + leftover.transpose(0, 2, 1)) / 2.0
            with _stage("step 6 (innovation conversion)"):
                model, state = associated_slss(m_full, cov.p, t_ys, cov.q_u)
        except (NumericalError, ModelInvalidError) as exc:
            if attempt == attempts - 1 or exc.stage == _STEP_2:
                raise
            rejected.append(f"{type(exc).__name__}: {exc}")
            continue
        diagnostics = {
            **found,
            "selection": joint.to_jsonable(),
            "selection_bar": bar.to_jsonable(),
            "warnings": list(cov.metadata.get("degenerate_words", [])),
            "n_bar": bar.n,
            "kq_iterations": state.iterations,
            "kq_last_delta": state.last_delta,
            "n_x": model.n_x,
        }
        if attempts > 1:
            diagnostics["search_attempts"] = attempt + 1
        if rejected:
            diagnostics["rejected_attempts"] = rejected
        return model, diagnostics


@functools.lru_cache(maxsize=16)
def _selection_pools(n_modes: int, cap: int, n_y: int, n_cols: int) -> tuple:
    """Row and column pools of the selection search, in enumeration order,
    then their Hankel plan over no shifts (algebra._hankel_plan), whose
    words are H's alone: H's word positions are (#alpha, #beta).  Cached.
    """
    word_pool = list(enumerate_words(n_modes, cap))
    modes = range(1, n_modes + 1)
    alpha_pool = tuple((w, k) for w in word_pool for k in range(1, n_y + 1))
    beta_pool = tuple((s, w, l) for w in word_pool for s in modes
                      for l in range(1, n_cols + 1))
    return (alpha_pool, beta_pool) + _hankel_plan(alpha_pool, beta_pool, 0)


def iter_full_rank_selections(
    M: WordIndexedMatrixTable,
    n: int,
    n_y: int,
    n_cols: int,
    n_modes: int,
    budget: int = 50000,
) -> Iterator[Selection]:
    """Yield selections with full-rank main Hankel, in deterministic order.

    Row and column pools hold the words up to length n, in length-then-lex
    order crossed with index order (empty words included); alpha combinations vary slowest and beta
    combinations fastest.  Every evaluated candidate counts against the
    budget; exhausting it raises NoSelectionFoundError mid-iteration.

    The main Hankel over the whole pools is gathered from M once; each
    candidate's Hankel is its sub-matrix, and it is full rank when n of its
    singular values exceed RANK_TOL times the largest.  A candidate that
    needs a word M lacks is skipped.
    """
    if n < 1:
        raise DimensionError(f"target dimension must be >= 1, got {n}")
    alpha_pool, beta_pool, words, pos, _, _, _, k, l = _selection_pools(n_modes, n, n_y, n_cols)
    rows = np.fromiter(map(M.index.get, words, repeat(-1)), dtype=np.intp,
                       count=len(words))[pos]
    missing = rows < 0
    # a missing word's row, -1, reads the zero matrix appended last
    padded = np.concatenate([M.array, np.zeros((1,) + M.shape)])
    pool = padded[rows, k[:, None], l]
    evaluated = 0
    for alpha in combinations(range(len(alpha_pool)), n):
        pool_rows, missing_rows = pool[alpha, :], missing[alpha, :]
        for beta in combinations(range(len(beta_pool)), n):
            if evaluated >= budget:
                raise NoSelectionFoundError(
                    f"no rank-{n} selection within budget {budget} "
                    "(larger budget, different n, or more data may help)"
                )
            evaluated += 1
            if missing_rows[:, beta].any():
                continue
            rank, _ = numerical_rank(pool_rows[:, beta])
            if rank == n:
                yield Selection(alpha=tuple(alpha_pool[i] for i in alpha),
                                beta=tuple(beta_pool[j] for j in beta),
                                n_modes=n_modes, n_y=n_y, n_cols=n_cols)


def _realize_at(sel: Union[Selection, str], M: WordIndexedMatrixTable, M_eps: np.ndarray,
                n: int, n_modes: int, attempt: int) -> Tuple[Selection, DeterministicModel]:
    """The selection of attempt `attempt` on M, with its realization at feedthrough M_eps.

    An explicit selection is realized as it is.  "search" takes the
    attempt-th (from 0) full-rank selection of dimension n, in
    iter_full_rank_selections' order, whose realization is mean-square
    stable, if it is among the first SEARCH_RETRIES + attempt candidates;
    otherwise NoSelectionFoundError says how many were examined.  Under
    estimation noise a full-rank selection can still realize a family that
    is not mean-square stable (its mean_square), which every later stage
    rejects; vetting here keeps the search moving.
    """
    if isinstance(sel, Selection):
        return sel, ho_kalman(sel, M, M_eps)
    examined = stable = 0
    for cand in iter_full_rank_selections(M, n, *M.shape, n_modes):
        try:
            m = ho_kalman(cand, M, M_eps)
        except SingularHankelError:
            m = None
        if m is not None and m.mean_square[1] < 1.0:
            if stable == attempt:
                return cand, m
            stable += 1
        examined += 1
        if examined >= SEARCH_RETRIES + attempt:
            break
    raise NoSelectionFoundError(
        f"{examined} full-rank selection(s) examined, none usable; "
        "more data or an explicit selection is needed"
    )
