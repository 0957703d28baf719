import entrunc

#: The public names of the package; changing this list is an API change.
PUBLIC_API = [
    "DegenerateTruncationError", "DimensionError", "DomainError", "EnsembleStats",
    "EntruncError", "HilbertDims", "LossPoint", "ResultRow", "ResultTable", "RngStream",
    "SweepConfig", "TruncatedState", "UnitaryKind", "__version__", "analytic_beta_uniform",
    "analytic_purity_m2", "conjectured_purity", "conjectured_schmidt_number", "emit_plot",
    "emit_table", "entanglement_loss", "evolve", "linear_approx_K", "loss_sweep",
    "make_initial_state", "parity_flag", "parse_table", "reduced_density", "reduced_purity",
    "render_csv", "render_json", "render_svg", "run_cell", "run_ensemble", "sample_cue",
    "schmidt_number", "sinc", "table_from_loss", "table_from_stats", "truncate",
    "uniform_spreading_unitary",
]


def test_public_api_is_frozen_and_resolves():
    assert sorted(entrunc.__all__) == PUBLIC_API
    assert len(set(entrunc.__all__)) == len(entrunc.__all__)
    for name in PUBLIC_API:
        assert getattr(entrunc, name) is not None, name
