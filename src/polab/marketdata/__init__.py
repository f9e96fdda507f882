"""Market-data input layer: the minute grid, the transaction schema, the
text parser, the binary cache and the price and side-file loaders.
"""
