"""Multiclass reduction and downstream classification accuracy.

Part one: four classes sharing one covariance are reduced to K - 1 = 3
dimensions; the pairwise preservation matrix shows every class pair keeps
its full divergence. Part two: two sampled classes, a Gaussian plug-in
classifier trained in reduced spaces of increasing rank, with the
mean-plus-principal-components baseline along for contrast.
"""

import numpy as np

from klproj import (
    GaussianParams,
    LabeledDataset,
    estimate_params,
    lol_projection,
    mean_first_projection,
    multiclass_lda,
    pairwise_preservation,
    plugin_classifier_train,
    random_class_params,
    rng_from_seed,
    sample,
    whitened_component_projection,
)

SEED = 99


def multiclass_part() -> None:
    d, k = 10, 4
    sigma = random_class_params(d, 0.3, 5.0, 0.0, SEED).covariance
    rng = rng_from_seed(SEED + 1)
    params = [GaussianParams(2.0 * rng.standard_normal(d), sigma) for _ in range(k)]

    res = multiclass_lda(params)
    ratios = pairwise_preservation(params, res.matrix)
    print(f"{k} classes in d = {d}, shared covariance, reduced to r = {res.r}")
    print("pairwise preservation ratios (projected kld / full kld):")
    for row in ratios:
        print("   " + "  ".join(f"{v:8.6f}" for v in row))
    print(f"worst pair: {ratios.min():.12f}\n")


def classification_part() -> None:
    # wide eigenvalue spread and small mean offset: the discriminative
    # directions are not the high-variance ones, which is where the
    # principal-component baseline goes wrong
    d, cls_seed = 6, 200
    p1 = random_class_params(d, 0.05, 20.0, 0.2, cls_seed + 2)
    p2 = random_class_params(d, 0.05, 20.0, 0.2, cls_seed + 3)
    n_train, n_test = 4000, 1500
    train = LabeledDataset(
        np.vstack([sample(p1, n_train, cls_seed + 4), sample(p2, n_train, cls_seed + 5)]),
        np.repeat([1, 2], n_train),
    )
    test = LabeledDataset(
        np.vstack([sample(p1, n_test, cls_seed + 6), sample(p2, n_test, cls_seed + 7)]),
        np.repeat([1, 2], n_test),
    )
    # estimate everything from the training split, as a user would
    e1 = estimate_params(train, 1)
    e2 = estimate_params(train, 2)

    print(f"two sampled classes, d = {d}, {n_train}/class train, {n_test}/class test")
    full_acc = plugin_classifier_train(train, np.eye(d)).score(test)
    print(f"full-space plug-in accuracy: {full_acc:.4f}")
    print(f"  {'r':>3} {'alg1':>8} {'alg2':>8} {'lol':>8}")
    for r in (1, 2, 3):
        accs = []
        for fit in (
            lambda: mean_first_projection(e1, e2, r),
            lambda: whitened_component_projection(e1, e2, r),
            lambda: lol_projection(e1, e2, r),
        ):
            a = fit().in_original_frame()
            accs.append(plugin_classifier_train(train, a).score(test))
        print(f"  {r:>3} " + " ".join(f"{acc:8.4f}" for acc in accs))


def main() -> None:
    multiclass_part()
    classification_part()


if __name__ == "__main__":
    main()
