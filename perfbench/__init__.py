"""End-to-end benchmark of the fracturing system (see ``run.py``)."""
