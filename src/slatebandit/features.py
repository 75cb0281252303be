"""Learned feature maps for rich contexts.

A small fully connected network is trained to predict the reward of a
(context, action) pair from raw text and categorical signals; its last hidden
layer is then used as the feature vector for the linear bandit head. Training
and inference share one forward pass, so the features the head sees are
exactly the ones the reward fit produced.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from .core import (
    Action,
    Context,
    LoggedEvent,
    NoDataError,
    RewardSpec,
    ValidationError,
    atomic_write,
    attributed_rewards,
)


class HashingEmbedder:
    """Deterministic text embedding by hashed n-gram accumulation.

    Each token n-gram hashes to a coordinate and a sign; the accumulated
    vector is L2-normalized. No vocabulary to ship, stable across processes
    for a fixed (dim, seed, max_ngram).
    """

    kind = "hashing"

    def __init__(self, dim: int = 32, seed: int = 0, max_ngram: int = 2) -> None:
        if dim < 1:
            raise ValidationError("embedding dim must be positive")
        if max_ngram < 1:
            raise ValidationError("max_ngram must be positive")
        self.dim = dim
        self.seed = seed
        self.max_ngram = max_ngram

    def embed(self, text: str | None) -> np.ndarray:
        vec = np.zeros(self.dim)
        if not text:
            return vec
        tokens = text.lower().split()
        for n in range(1, self.max_ngram + 1):
            for i in range(len(tokens) - n + 1):
                gram = " ".join(tokens[i : i + n])
                digest = hashlib.blake2b(
                    gram.encode("utf-8"), key=str(self.seed).encode("utf-8"), digest_size=8
                ).digest()
                value = int.from_bytes(digest, "big")
                index = value % self.dim
                sign = 1.0 if (value >> 32) & 1 else -1.0
                vec[index] += sign
        norm = np.linalg.norm(vec)
        if norm > 0:
            vec /= norm
        return vec

    def to_dict(self) -> dict:
        return {"kind": self.kind, "dim": self.dim, "seed": self.seed, "max_ngram": self.max_ngram}


class TableEmbedder:
    """Average of per-token vectors from a fixed lookup table."""

    kind = "table"

    def __init__(self, vectors: dict[str, list[float]], dim: int) -> None:
        if dim < 1:
            raise ValidationError("embedding dim must be positive")
        for word, vec in vectors.items():
            if len(vec) != dim:
                raise ValidationError(f"vector for {word!r} has wrong dimension")
        self.vectors = {w: np.asarray(v, dtype=float) for w, v in vectors.items()}
        self.dim = dim

    def embed(self, text: str | None) -> np.ndarray:
        vec = np.zeros(self.dim)
        if not text:
            return vec
        hits = [self.vectors[t] for t in text.lower().split() if t in self.vectors]
        if hits:
            vec = np.mean(hits, axis=0)
        return vec

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "dim": self.dim,
            "vectors": {w: list(map(float, v)) for w, v in sorted(self.vectors.items())},
        }


def embedder_from_dict(d: dict):
    kind = d.get("kind")
    if kind == "hashing":
        return HashingEmbedder(dim=d["dim"], seed=d.get("seed", 0), max_ngram=d.get("max_ngram", 2))
    if kind == "table":
        return TableEmbedder(vectors=d["vectors"], dim=d["dim"])
    raise ValidationError(f"unknown embedder kind {kind!r}")


@dataclass
class FeaturizerSpec:
    """Input layout: text embeddings for query and title, then one-hot blocks.

    Each vocabulary maps a feature name to its known values; unknown or
    missing values land in a trailing extra slot, so the layout is total.
    Block order is fixed (query, title, context vocabs sorted by name, action
    vocabs sorted by name) and part of the serialized form.
    """

    embedding: HashingEmbedder | TableEmbedder = field(default_factory=HashingEmbedder)
    context_vocabs: dict[str, list[str]] = field(default_factory=dict)
    action_vocabs: dict[str, list[str]] = field(default_factory=dict)

    @property
    def dim(self) -> int:
        total = 2 * self.embedding.dim
        for vocab in self.context_vocabs.values():
            total += len(vocab) + 1
        for vocab in self.action_vocabs.values():
            total += len(vocab) + 1
        return total

    def to_dict(self) -> dict:
        return {
            "embedding": self.embedding.to_dict(),
            "context_vocabs": {k: list(v) for k, v in sorted(self.context_vocabs.items())},
            "action_vocabs": {k: list(v) for k, v in sorted(self.action_vocabs.items())},
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FeaturizerSpec":
        return cls(
            embedding=embedder_from_dict(d["embedding"]),
            context_vocabs={k: list(v) for k, v in d.get("context_vocabs", {}).items()},
            action_vocabs={k: list(v) for k, v in d.get("action_vocabs", {}).items()},
        )


def _slot(value: str | None, vocab: list[str]) -> int:
    """Position of ``value`` in its one-hot block; unknown or missing values
    take the extra last slot."""
    try:
        return vocab.index(value)
    except ValueError:
        return len(vocab)


def _one_hot(value: str | None, vocab: list[str]) -> np.ndarray:
    block = np.zeros(len(vocab) + 1)
    block[_slot(value, vocab)] = 1.0
    return block


def _featurize_key(spec: FeaturizerSpec, context: Context, action: Action) -> tuple:
    """Exactly what ``featurize`` reads: the query, the title and the
    one-hot slot of each vocabulary. Pairs with equal keys featurize to
    equal vectors."""
    return (
        context.query,
        action.title,
        *(_slot(context.features.get(n), v) for n, v in sorted(spec.context_vocabs.items())),
        *(_slot(action.features.get(n), v) for n, v in sorted(spec.action_vocabs.items())),
    )


def featurize(spec: FeaturizerSpec, context: Context, action: Action) -> np.ndarray:
    blocks = [spec.embedding.embed(context.query), spec.embedding.embed(action.title)]
    for name in sorted(spec.context_vocabs):
        blocks.append(_one_hot(context.features.get(name), spec.context_vocabs[name]))
    for name in sorted(spec.action_vocabs):
        blocks.append(_one_hot(action.features.get(name), spec.action_vocabs[name]))
    return np.concatenate(blocks)


@dataclass
class TrainConfig:
    hidden_sizes: tuple[int, ...] = (128, 64)
    learning_rate: float = 0.05
    epochs: int = 50
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self) -> None:
        self.hidden_sizes = tuple(int(h) for h in self.hidden_sizes)
        if not self.hidden_sizes or any(h < 1 for h in self.hidden_sizes):
            raise ValidationError("hidden_sizes must be positive")
        if self.learning_rate <= 0:
            raise ValidationError("learning_rate must be positive")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValidationError("epochs and batch_size must be positive")


def init_params(
    input_dim: int, hidden_sizes: tuple[int, ...], rng: np.random.Generator
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Layer weights and biases, output layer included (width 1, linear)."""
    sizes = [input_dim, *hidden_sizes, 1]
    weights = []
    biases = []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        weights.append(rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return weights, biases


def forward(
    weights: list[np.ndarray], biases: list[np.ndarray], x: np.ndarray
) -> list[np.ndarray]:
    """All layer activations for a batch; tanh on hidden layers, linear output.

    Returns [input, hidden_1, ..., hidden_k, output]; the last hidden entry is
    the feature vector the bandit head consumes.
    """
    activations = [np.atleast_2d(x)]
    for layer, (w, b) in enumerate(zip(weights, biases)):
        z = activations[-1] @ w + b
        if layer < len(weights) - 1:
            z = np.tanh(z)
        activations.append(z)
    return activations


def loss_and_grads(
    weights: list[np.ndarray],
    biases: list[np.ndarray],
    x: np.ndarray,
    y: np.ndarray,
) -> tuple[float, list[np.ndarray], list[np.ndarray]]:
    """Mean squared error over the batch and its gradients by backprop."""
    y = np.asarray(y, dtype=float).reshape(-1)
    activations = forward(weights, biases, x)
    pred = activations[-1][:, 0]
    n = len(y)
    residual = pred - y
    loss = float(np.mean(residual**2))

    grad_w = [np.zeros_like(w) for w in weights]
    grad_b = [np.zeros_like(b) for b in biases]
    delta = (2.0 / n) * residual[:, None]
    for layer in range(len(weights) - 1, -1, -1):
        grad_w[layer] = activations[layer].T @ delta
        grad_b[layer] = delta.sum(axis=0)
        if layer > 0:
            delta = (delta @ weights[layer].T) * (1.0 - activations[layer] ** 2)
    return loss, grad_w, grad_b


# Most (context, action) outputs a FeatureMap keeps; the least recently used
# one is dropped beyond this. A full memo of 32-wide vectors holds about
# 2.7 MB; a world whose queries come from a few templates per context needs
# templates x (pool + 1) entries, 156 for three 12-article contexts.
TRANSFORM_MEMO_SIZE = 4096


def _read_only(array) -> np.ndarray:
    array = np.array(array, dtype=float)
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class FeatureMap:
    """Trained featurizer + network; ``transform`` yields bandit features.

    ``weights`` and ``biases`` become tuples of read-only float copies of
    what was passed in, so no in-place edit can leave ``transform``'s memo
    stale. ``featurizer`` is not frozen and must not be changed after
    construction. The memo is not serialized.
    """

    featurizer: FeaturizerSpec
    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]
    config: TrainConfig
    epoch_losses: list[float] = field(default_factory=list)
    _memo: OrderedDict = field(
        default_factory=OrderedDict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", tuple(_read_only(w) for w in self.weights))
        object.__setattr__(self, "biases", tuple(_read_only(b) for b in self.biases))

    @property
    def dim(self) -> int:
        """Width of the feature vector (the last hidden layer)."""
        return self.weights[-1].shape[0]

    def transform(self, context: Context, action: Action) -> np.ndarray:
        """The last hidden layer for the pair, as a read-only vector.

        Outputs are memoised on ``_featurize_key``, which holds exactly what
        ``featurize`` reads. This pays only when whole queries repeat; a new
        query misses on every candidate and costs the key and the insert on
        top of ``featurize`` + ``forward``.
        """
        spec = self.featurizer
        key = _featurize_key(spec, context, action)
        memo = self._memo
        phi = memo.get(key)
        if phi is not None:
            memo.move_to_end(key)
            return phi
        phi = forward(self.weights, self.biases, featurize(spec, context, action))[-2][0]
        phi.flags.writeable = False
        memo[key] = phi
        if len(memo) > TRANSFORM_MEMO_SIZE:
            memo.popitem(last=False)
        return phi

    def to_dict(self) -> dict:
        return {
            "featurizer": self.featurizer.to_dict(),
            "weights": [w.tolist() for w in self.weights],
            "biases": [b.tolist() for b in self.biases],
            "config": {
                "hidden_sizes": list(self.config.hidden_sizes),
                "learning_rate": self.config.learning_rate,
                "epochs": self.config.epochs,
                "batch_size": self.config.batch_size,
                "seed": self.config.seed,
            },
            "epoch_losses": [float(v) for v in self.epoch_losses],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FeatureMap":
        cfg = d["config"]
        return cls(
            featurizer=FeaturizerSpec.from_dict(d["featurizer"]),
            weights=d["weights"],
            biases=d["biases"],
            config=TrainConfig(
                hidden_sizes=tuple(cfg["hidden_sizes"]),
                learning_rate=cfg["learning_rate"],
                epochs=cfg["epochs"],
                batch_size=cfg["batch_size"],
                seed=cfg["seed"],
            ),
            epoch_losses=[float(v) for v in d.get("epoch_losses", [])],
        )


def training_pairs(
    events: list[LoggedEvent], reward_spec: RewardSpec, featurizer: FeaturizerSpec
) -> tuple[np.ndarray, np.ndarray]:
    """(X, y) over events with a defined reward attributed to a content action.

    Rows are featurized once per distinct ``_featurize_key`` within the call.
    That pays only when (query, title, slots) rows repeat, as they do when
    queries come from a few templates; with all-new queries every row misses
    and the key and the insert cost a little on top of ``featurize``.
    """
    xs = []
    ys = []
    rows: dict[tuple, np.ndarray] = {}
    for _, event, action, reward in attributed_rewards(events, reward_spec):
        # the network learns what an article is worth; free-text turns on the
        # null slot reach the bandit head only
        if action.is_null_item:
            continue
        key = _featurize_key(featurizer, event.context, action)
        x = rows.get(key)
        if x is None:
            x = rows[key] = featurize(featurizer, event.context, action)
        xs.append(x)
        ys.append(reward)
    if not xs:
        return np.zeros((0, featurizer.dim)), np.zeros(0)
    return np.asarray(xs), np.asarray(ys)


def train(
    events: list[LoggedEvent],
    reward_spec: RewardSpec,
    featurizer: FeaturizerSpec,
    config: TrainConfig,
) -> FeatureMap:
    """Fit the reward network by seeded mini-batch gradient descent.

    Records the full-training-set loss after each epoch; raises NoDataError
    when no event yields a usable (features, reward) pair.
    """
    x, y = training_pairs(events, reward_spec, featurizer)
    if len(y) == 0:
        raise NoDataError("no usable training pairs in the event log")
    rng = np.random.default_rng(config.seed)
    weights, biases = init_params(x.shape[1], config.hidden_sizes, rng)
    losses = []
    for _ in range(config.epochs):
        order = rng.permutation(len(y))
        for start in range(0, len(y), config.batch_size):
            batch = order[start : start + config.batch_size]
            _, grad_w, grad_b = loss_and_grads(weights, biases, x[batch], y[batch])
            for layer in range(len(weights)):
                weights[layer] -= config.learning_rate * grad_w[layer]
                biases[layer] -= config.learning_rate * grad_b[layer]
        epoch_loss, _, _ = loss_and_grads(weights, biases, x, y)
        losses.append(epoch_loss)
    return FeatureMap(
        featurizer=featurizer, weights=weights, biases=biases, config=config, epoch_losses=losses
    )


def save_feature_map(feature_map: FeatureMap, path: str | os.PathLike) -> None:
    atomic_write(path, json.dumps(feature_map.to_dict(), sort_keys=True) + "\n")


def load_feature_map(path: str | os.PathLike) -> FeatureMap:
    with open(path, "r", encoding="utf-8") as fh:
        return FeatureMap.from_dict(json.load(fh))
