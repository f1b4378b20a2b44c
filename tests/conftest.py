"""Suite-wide pytest hooks.

``--reverse-modules`` runs the test modules in reverse order (tests
keep their order within a module).  A test that passes only because an
earlier module left shared state behind — a warm cache, an environment
variable — fails under it; CI runs tier-1 both ways.
"""


def pytest_addoption(parser):
    parser.addoption(
        "--reverse-modules",
        action="store_true",
        default=False,
        help="run test modules in reverse order (order-dependence check)",
    )


def pytest_collection_modifyitems(config, items):
    if not config.getoption("--reverse-modules"):
        return
    rank = {}
    for item in items:
        rank.setdefault(item.path, len(rank))
    # A stable sort: each module's tests keep their relative order.
    items.sort(key=lambda item: -rank[item.path])
