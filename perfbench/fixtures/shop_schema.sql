-- Online shop schema for the cli-cold workload (sqlio front end).
CREATE TABLE customer (
    c_id        INT,
    c_name      VARCHAR(40),
    c_email     VARCHAR(64),
    c_phone     CHAR(16),
    c_address   VARCHAR(120),
    c_balance   DECIMAL(12,2),
    c_since     DATE,
    c_notes     VARCHAR(500)
);
CREATE TABLE product (
    p_id        INT,
    p_name      VARCHAR(60),
    p_price     DECIMAL(10,2),
    p_stock     INT,
    p_category  SMALLINT,
    p_weight    FLOAT,
    p_desc      VARCHAR(800),
    p_image     VARCHAR(200)
);
CREATE TABLE orders (
    o_id        BIGINT,
    o_c_id      INT,
    o_status    CHAR(10),
    o_total     DECIMAL(12,2),
    o_created   TIMESTAMP,
    o_shipped   TIMESTAMP,
    o_address   VARCHAR(120)
);
CREATE TABLE order_line (
    ol_o_id     BIGINT,
    ol_number   SMALLINT,
    ol_p_id     INT,
    ol_qty      SMALLINT,
    ol_amount   DECIMAL(10,2),
    ol_discount DECIMAL(4,2)
);
CREATE TABLE cart (
    ca_c_id     INT,
    ca_p_id     INT,
    ca_qty      SMALLINT,
    ca_added    TIMESTAMP
);
CREATE TABLE review (
    r_id        BIGINT,
    r_p_id      INT,
    r_c_id      INT,
    r_stars     TINYINT,
    r_title     VARCHAR(80),
    r_body      VARCHAR(1000),
    r_created   TIMESTAMP
);
CREATE TABLE payment (
    pa_id       BIGINT,
    pa_o_id     BIGINT,
    pa_amount   DECIMAL(12,2),
    pa_method   CHAR(8),
    pa_token    VARCHAR(64),
    pa_at       TIMESTAMP
);
